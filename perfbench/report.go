package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef names one metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads. The
// metric names and units are defined there and nowhere else: the
// untraced run reports end_to_end, the traced run per_layer. Every
// workload reports every end-to-end metric (README.md gives each
// workload's reading); a layer a workload does not exercise reads 0
// in the traced run.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no end_to_end or no per_layer metric", path)
	}
	return &bf, nil
}

// report accumulates one run's metrics, output checks and notes.
type report struct {
	defs []metricDef
	// endToEnd marks the untraced run, whose metrics must be positive.
	endToEnd  bool
	values    map[string]float64
	fails     []string
	invalid   []string
	notes     []string
	attempted int64
	failed    int64
}

func newReport(bf *benchmarkFile, traced bool) *report {
	if traced {
		return &report{defs: bf.PerLayer, values: make(map[string]float64)}
	}
	return &report{defs: bf.EndToEnd, endToEnd: true, values: make(map[string]float64)}
}

// set records a metric; the name must belong to the run's set.
func (r *report) set(name string, v float64) { r.values[name] = v }

// failf records a failed output check.
func (r *report) failf(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// invalidf marks the run invalid: the harness, not the program, failed
// to measure as it should. The output checks are unaffected.
func (r *report) invalidf(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// notef records an informational line for the human-readable report.
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds operations to the attempted/failed ledger of the result.
func (r *report) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// result builds the output line. A metric missing from, or foreign
// to, the run's set is a bug in the benchmark, not in the program.
func (r *report) result() (*result, error) {
	res := &result{Metrics: make(map[string]metric, len(r.defs)), Attempted: r.attempted, Failed: r.failed}
	known := make(map[string]bool, len(r.defs))
	for _, d := range r.defs {
		known[d.Name] = true
		v, ok := r.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range r.values {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in this run's set", name)
		}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if r.endToEnd {
		for _, d := range r.defs {
			if r.values[d.Name] <= 0 {
				r.failf("end-to-end metric %s measured %v; it must be positive", d.Name, r.values[d.Name])
			}
		}
	}
	res.Correct = len(r.fails) == 0
	return res, nil
}

// print writes the human-readable report: every metric by name with
// its unit, then notes and failed checks.
func (r *report) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed\n", workload, r.attempted, r.failed)
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.Name, r.values[d.Name], d.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.invalid {
		fmt.Fprintf(w, "  RUN INVALID: %s\n", f)
	}
	sort.Strings(r.fails)
	for _, f := range r.fails {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
}

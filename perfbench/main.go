// Command perfbench is the repository benchmark. One invocation runs
// one named workload for a fixed measuring budget and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end figures, measured with
// no instrumentation installed; with -trace 1 a separate traced run
// reports the per-layer figures. README.md maps every metric to its
// layer and workload. The metric names and units are read from
// BENCHMARK.json.
//
//	go run . -benchmark ../BENCHMARK.json -workload pipeline -seed 1 -seconds 20 -trace 0
//
// The benchmark owns its injector, sink and ledger: it reaches the
// framework only through public functions of its packages, so a
// change to internal/load cannot move the instrument.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// search adds the sustainable-rate search to an open-loop
	// workload's untraced run.
	search bool
	// bench is BENCHMARK.json: the metric names and units.
	bench *benchmarkFile
	// outDir receives the traced run's span file.
	outDir string
	// log receives the human-readable report lines.
	log io.Writer
}

// budget returns a share of the run's measuring time.
func (rc runConfig) budget(share float64) time.Duration {
	return time.Duration(share * rc.seconds * float64(time.Second))
}

// workloads lists the runnable workloads; README.md says why each
// exists. BENCHMARK.json lists those whose figures hold within its
// bounds on a shared host; sporadic-burst and pipeline-3node are run by
// hand.
var workloads = map[string]func(rc runConfig, out *report) error{
	"fig7":           runFig7Workload,
	"pipeline":       func(rc runConfig, out *report) error { return runOpenLoop(rc, pipelineWorkload, out) },
	"sporadic-burst": func(rc runConfig, out *report) error { return runOpenLoop(rc, sporadicWorkload, out) },
	"pipeline-3node": func(rc runConfig, out *report) error { return runOpenLoop(rc, pipeline3NodeWorkload, out) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "measuring budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	search := fs.Bool("search", false, "add the sustainable-rate search to an open-loop workload's untraced run")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition naming every metric and its unit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload %v, -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	bf, err := readBenchmarkFile(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	res, err := run(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, search: *search,
		bench: bf, outDir: *outDir, log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	// A failed output check is reported as correct=false; the exit
	// code stays 0 once a result line is printed.
	fmt.Println(string(line))
}

// run executes one workload and assembles its result line. A failed
// output check does not abort the run: every check is evaluated and
// reported, and the result says correct=false.
func run(rc runConfig) (*result, error) {
	out := newReport(rc.bench, rc.trace)
	if err := workloads[rc.workload](rc, out); err != nil {
		return nil, fmt.Errorf("%s: %w", rc.workload, err)
	}
	res, err := out.result()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.workload, err)
	}
	out.print(rc.log, rc.workload)
	return res, nil
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly on two seeds, untraced and
// traced: those BENCHMARK.json lists and those run only by hand. A run
// fails when a metric BENCHMARK.json names for it is not measured, or
// when it measures one it does not name.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not run", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				t.Run(fmt.Sprintf("%s/seed%d/trace%v", name, seed, traced), func(t *testing.T) {
					res, err := run(runConfig{workload: name, seed: seed, seconds: 1, trace: traced, bench: bf, outDir: t.TempDir(), log: io.Discard})
					if err != nil {
						t.Fatal(err)
					}
					if res.Attempted < 1 {
						t.Errorf("attempted %d", res.Attempted)
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
					}
					for _, m := range want {
						if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
							t.Errorf("metric %s: emitted %v, want unit %q", m.Name, got, m.Unit)
						}
					}
					if !res.Correct {
						t.Logf("output checks failed (see the run's report)")
					}
				})
			}
		}
	}
}

// TestSearch runs the opt-in sustainable-rate search briefly and checks
// that it reports an answer.
func TestSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the pipeline past its knee")
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if _, err := run(runConfig{workload: "pipeline", seed: 1, seconds: 1, search: true, bench: bf, outDir: t.TempDir(), log: &log}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "sustainable rate") && !strings.Contains(log.String(), "search capped") {
		t.Errorf("the search reported no rate:\n%s", log.String())
	}
}

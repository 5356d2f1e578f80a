package load

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count settles back to the
// baseline (plus scheduler slack) or the timeout expires.
func waitGoroutines(t *testing.T, baseline int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestSoakLoadScenarios is the make soak-load smoke: one small
// instance of every scenario shape driven open-loop under -race, each
// covering a different arrival process, plus one 3-node cluster run —
// every system torn down with zero goroutine leaks and at least some
// traffic completing end to end.
func TestSoakLoadScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("soak scenario, skipped in -short")
	}
	baseline := runtime.NumGoroutine()

	cases := []struct {
		shape   Shape
		arrival Arrival
		nodes   int
	}{
		{Pipeline, Constant, 1},
		{Fanin, Constant, 1},
		{StateMachine, Ramp, 1},
		{Reactive, Constant, 1},
		{Sporadic, Burst, 1},
		{Pipeline, Constant, 3},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s-n%d-%s", tc.shape, tc.nodes, tc.arrival)
		t.Run(name, func(t *testing.T) {
			spec := Spec{Shape: tc.shape, Components: 12, Nodes: tc.nodes, Seed: 3}
			if tc.shape == Sporadic {
				// Contract far under the offered burst rate so the
				// admission gates demonstrably engage.
				spec.ContractRate = 40
				spec.ContractBurst = 4
			}
			res, err := Run(
				spec,
				Profile{
					Rate:     400,
					Duration: 400 * time.Millisecond,
					Warmup:   100 * time.Millisecond,
					Arrival:  tc.arrival,
					Deadline: 250 * time.Millisecond,
					Drain:    time.Second,
				},
				RunConfig{Resilient: true},
			)
			if err != nil {
				t.Fatal(err)
			}
			if res.Injected == 0 {
				t.Fatal("open-loop driver injected nothing")
			}
			if res.Completed == 0 {
				t.Fatalf("no completions: injected %d, dropped %d, coalesced %d, errors %d",
					res.Injected, res.Dropped, res.Coalesced, res.InjectErrors)
			}
			if res.InjectErrors > 0 {
				t.Errorf("dataplane refused %d injections", res.InjectErrors)
			}
			// Every ledger column counts the measured window only, so
			// the outcomes cannot outnumber the measured injections.
			if sum := res.Completed + res.Dropped + res.Coalesced; sum > res.Injected {
				t.Errorf("ledger overcounts: completed %d + dropped %d + coalesced %d = %d > injected %d",
					res.Completed, res.Dropped, res.Coalesced, sum, res.Injected)
			}
			if res.P999 == 0 {
				t.Error("no latency distribution recorded")
			}
			if tc.shape == Sporadic && res.Shed == 0 && res.Dropped == 0 {
				t.Error("sporadic burst storm shed nothing; admission gates are not engaged")
			}
			t.Logf("%s: injected %d completed %d shed %d dropped %d coalesced %d p50 %v p99.9 %v",
				name, res.Injected, res.Completed, res.Shed, res.Dropped, res.Coalesced, res.P50, res.P999)
		})
	}
	waitGoroutines(t, baseline, 5*time.Second)
}

// TestRateSearchFindsSustainableRate exercises the binary search on a
// small pipeline with deliberately short trials: it must return a
// sustainable rate at or above the floor with a coherent best trial.
func TestRateSearchFindsSustainableRate(t *testing.T) {
	if testing.Short() {
		t.Skip("soak scenario, skipped in -short")
	}
	sr, err := SearchRate(
		Spec{Shape: Pipeline, Components: 8, Nodes: 1, Seed: 5},
		RunConfig{Resilient: true},
		SearchOptions{
			MinRate: 100, MaxRate: 2000, Iterations: 3,
			Bound:         250 * time.Millisecond,
			TrialDuration: 300 * time.Millisecond, TrialWarmup: 100 * time.Millisecond,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Trials) == 0 {
		t.Fatal("search ran no trials")
	}
	if sr.SustainableRate < 100 {
		t.Fatalf("sustainable rate %.0f below the bracket floor; trials: %+v", sr.SustainableRate, sr.Trials[0])
	}
	if sr.Best == nil || sr.Best.Completed == 0 {
		t.Fatal("search returned no best trial")
	}
}

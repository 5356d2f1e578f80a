package main

import "testing"

// TestCoverageCatchesMissedHop checks that trace coverage counts only
// measured spans: an arrival whose middle component recorded nothing
// must fall short of the tolerance and count as incomplete.
func TestCoverageCatchesMissedHop(t *testing.T) {
	tr := newTracer([]string{"a", "b", "sink"}, true)
	tr.reset(1)
	led := newLedger([]int64{1000})
	led.lateness[0] = 10
	led.latency[0] = 900
	led.resolve(0, stCompleted)
	for c, at := range []int64{1010, 1100, 1200} {
		h := tr.at(0, c)
		h.disp = span{at, at + 60}
		h.cont = span{at + 10, at + 50}
		if c < 2 {
			h.send = span{at + 20, at + 30}
		}
	}
	paths := [][]int{{0, 1, 2}}

	st := tr.analyze(led, paths, nil)
	if st.traced != 1 || st.incomplete != 0 || st.coverage[0] != 1 {
		t.Fatalf("all spans recorded: traced %d, incomplete %d, coverage %v; want 1, 0, [1]", st.traced, st.incomplete, st.coverage)
	}
	if len(st.releaseWait) != 2 || st.releaseWait[0] != us(1100-1040) {
		t.Errorf("release waits %v, want two, the first %v", st.releaseWait, us(1100-1040))
	}

	*tr.at(0, 1) = hopRec{}
	st = tr.analyze(led, paths, nil)
	if st.incomplete != 1 || st.coverage[0] >= minCoverage {
		t.Fatalf("middle hop missing: incomplete %d, coverage %v; want 1 and below %v", st.incomplete, st.coverage, minCoverage)
	}
}

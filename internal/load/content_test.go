package load

import (
	"testing"
	"time"

	"soleil/internal/membrane"
	"soleil/internal/qos"
	"soleil/internal/rtsj/thread"
)

// shedPort refuses every send with backpressure, as a shedding gate
// or a full buffer does.
type shedPort struct{}

func (shedPort) Call(*thread.Env, string, any) (any, error) { return nil, qos.ErrBackpressure }
func (shedPort) Send(*thread.Env, string, any) error        { return qos.ErrBackpressure }

// TestCollectorLedgerSkipsWarmup pins one window for every ledger
// column: a stamp intended before the end of warmup is counted neither
// completed, nor dropped, nor coalesced — Injected leaves it out too,
// so the columns can never sum past it.
func TestCollectorLedgerSkipsWarmup(t *testing.T) {
	warmupEnd := time.Unix(0, 1_000_000)
	col := NewCollector(0)
	col.SetWarmupEnd(warmupEnd)
	binds := membrane.NewBindingController("relay")
	for _, itf := range []string{"out", "out0", "out1"} {
		if err := binds.Bind(itf, shedPort{}); err != nil {
			t.Fatal(err)
		}
	}
	svc := membrane.NewServices("relay", binds)
	relay := &relayContent{svc: svc, col: col}
	reactive := &reactiveContent{svc: svc, col: col}

	for _, stamp := range []int64{warmupEnd.UnixNano() - 1, warmupEnd.UnixNano()} {
		col.Complete(stamp)
		if _, err := relay.Invoke(nil, "in", "put", stamp); err != nil {
			t.Fatal(err)
		}
		// Two inputs: the reactive component forwards (and is shed on)
		// the first and coalesces the second.
		for i := 0; i < 2; i++ {
			if _, err := reactive.Invoke(nil, "in", "put", stamp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := col.Completed(); got != 1 {
		t.Errorf("completed %d, want 1 (the measured stamp only)", got)
	}
	if got := col.Dropped(); got != 2 {
		t.Errorf("dropped %d, want 2 (the measured stamp's relay and reactive forwards)", got)
	}
	if got := col.Coalesced(); got != 1 {
		t.Errorf("coalesced %d, want 1 (the measured stamp only)", got)
	}
}

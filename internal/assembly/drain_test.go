package assembly

import (
	"fmt"
	"testing"
	"time"

	"soleil/internal/model"
	"soleil/internal/validate"
)

// TestDrainRuleMatchesRuntime checks the validator's buffer model
// against the runtime it approves: for a periodic producer feeding a
// periodic or sporadic server, the pricing core's ceil(interval ×
// rate) must be exactly the smallest bufferSize that loses nothing on
// the virtual clock — the runtime drains every queued message per
// release, and the model says so.
func TestDrainRuleMatchesRuntime(t *testing.T) {
	const ms = time.Millisecond
	run := func(t *testing.T, src, srv model.Activation, buffer int) (accepted int, dropped int64) {
		t.Helper()
		source := &burstSource{n: 1 << 30}
		sys := relaySystem(t, src, srv, source, &pacerSink{}, buffer)
		// Refused sends fail the producer's release; resilient mode
		// keeps it releasing so the buffer's drop count is the loss.
		sys.resilient = true
		if err := sys.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		return source.sent, sys.Buffers()[0].Stats().Dropped
	}
	for _, kind := range []model.ActivationKind{model.PeriodicActivation, model.SporadicActivation} {
		for _, period := range []time.Duration{3 * ms, 5 * ms, 7 * ms, 10 * ms} {
			for _, interval := range []time.Duration{4 * ms, 10 * ms, 12 * ms, 35 * ms, 50 * ms} {
				src := model.Activation{Kind: model.PeriodicActivation, Period: period}
				srv := model.Activation{Kind: kind, Period: interval}
				t.Run(fmt.Sprintf("%v/producer=%v/interval=%v", kind, period, interval), func(t *testing.T) {
					probe := relaySystem(t, src, srv, &burstSource{}, &pacerSink{}, 1)
					arch := probe.Architecture()
					server, _ := arch.Component("Sink")
					need := validate.Slots(validate.Interval(server), validate.NewPricing(arch, nil, 0).Rate(arch.Bindings()[0]))
					if sent, dropped := run(t, src, srv, need); dropped != 0 {
						t.Errorf("bufferSize %d (the model's need) refused %d sends and accepted %d", need, dropped, sent)
					}
					if need > 1 {
						if sent, dropped := run(t, src, srv, need-1); dropped == 0 {
							t.Errorf("bufferSize %d (one below the model's need) refused nothing of %d sends", need-1, sent)
						}
					}
				})
			}
		}
	}
}

// TestPeriodicServerSendsNoErrors feeds a periodic server from a
// periodic producer on both clocks. Arrivals release only sporadic
// receivers, so the producer's sends succeed and the server drains
// every message at its period boundaries.
func TestPeriodicServerSendsNoErrors(t *testing.T) {
	const n = 20
	src := model.Activation{Kind: model.PeriodicActivation, Period: 5 * time.Millisecond}
	srv := model.Activation{Kind: model.PeriodicActivation, Period: 10 * time.Millisecond}
	check := func(t *testing.T, sys *System, snk *seqSink) {
		t.Helper()
		if errs := sys.Errors(); len(errs) > 0 {
			t.Fatalf("%d send errors; first: %v", len(errs), errs[0])
		}
		got := snk.received()
		if len(got) != n {
			t.Fatalf("sink got %d messages, want %d: %v", len(got), n, got)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("message %d is %d: %v", i, seq, got)
			}
		}
	}

	t.Run("virtual", func(t *testing.T) {
		snk := &seqSink{}
		sys := relaySystem(t, src, srv, &burstSource{n: n}, snk, 16)
		if err := sys.RunFor(50 * src.Period); err != nil {
			t.Fatal(err)
		}
		check(t, sys, snk)
	})

	t.Run("wall", func(t *testing.T) {
		snk := &seqSink{}
		sys := relaySystem(t, src, srv, &burstSource{n: n}, snk, 16)
		p, err := NewPacer(sys, PacerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for len(snk.received()) < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		p.Close()
		check(t, sys, snk)
	})
}

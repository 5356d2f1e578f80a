package assembly

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/rtsj/thread"
)

// pacerSource emits one message per activation.
type pacerSource struct {
	svc  *membrane.Services
	fail atomic.Bool
	sent atomic.Int64
}

func (s *pacerSource) Init(svc *membrane.Services) error { s.svc = svc; return nil }

func (s *pacerSource) Invoke(*thread.Env, string, string, any) (any, error) {
	return nil, errors.New("source serves nothing")
}

func (s *pacerSource) Activate(env *thread.Env) error {
	if s.fail.Load() {
		return errors.New("injected activation failure")
	}
	port, err := s.svc.Port("out")
	if err != nil {
		return err
	}
	if err := port.Send(env, "put", int(s.sent.Load())); err != nil {
		return err
	}
	s.sent.Add(1)
	return nil
}

// pacerSink counts deliveries.
type pacerSink struct {
	got atomic.Int64
}

func (s *pacerSink) Init(*membrane.Services) error { return nil }

func (s *pacerSink) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	s.got.Add(1)
	return nil, nil
}

func (s *pacerSink) Activate(*thread.Env) error { return nil }

func pacedSystem(t *testing.T, src *pacerSource, snk *pacerSink) *System {
	t.Helper()
	return relaySystem(t,
		model.Activation{Kind: model.PeriodicActivation, Period: time.Millisecond},
		model.Activation{Kind: model.SporadicActivation}, src, snk, 64)
}

func TestPacerDrivesPipelineInRealTime(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk)
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	deadline := time.Now().Add(5 * time.Second)
	for snk.got.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := snk.got.Load(); got < 5 {
		t.Fatalf("sink saw %d messages, want >= 5 (activations=%d deliveries=%d errors=%d)",
			got, p.Activations(), p.Deliveries(), p.Errors())
	}
	if p.Activations() == 0 || p.Deliveries() == 0 {
		t.Fatalf("pacer counters flat: activations=%d deliveries=%d", p.Activations(), p.Deliveries())
	}
}

func TestPacerAbsorbsActivationErrors(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk)
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src.fail.Store(true)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	deadline := time.Now().Add(5 * time.Second)
	for p.Errors() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if p.Errors() < 3 {
		t.Fatalf("pacer absorbed %d errors, want >= 3", p.Errors())
	}
	// Absorbed errors land in the system's error ring, named by
	// component.
	errs := sys.Errors()
	if len(errs) < 3 || !strings.HasPrefix(errs[0].Error(), "Source: ") {
		t.Fatalf("system recorded %d errors, want >= 3 naming Source: %v", len(errs), errs)
	}
	// The driver survived the failures: un-fail and verify flow.
	src.fail.Store(false)
	before := snk.got.Load()
	for snk.got.Load() < before+3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if snk.got.Load() < before+3 {
		t.Fatal("pipeline did not resume after absorbed failures")
	}
}

func TestPacerCloseJoinsDrivers(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk)
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	sent := src.sent.Load()
	time.Sleep(20 * time.Millisecond)
	if src.sent.Load() != sent {
		t.Fatal("driver still activating after Close")
	}
	// Close is idempotent and Run can restart.
	p.Close()
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	p.Close()
}

func TestPacerRequiresSoleilMode(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	a := pacedSystem(t, src, snk).Architecture()
	reg := NewRegistry()
	_ = reg.Register("SourceImpl", func() membrane.Content { return &pacerSource{} })
	_ = reg.Register("SinkImpl", func() membrane.Content { return &pacerSink{} })
	sys, err := Deploy(a, Config{Mode: UltraMerge, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPacer(sys, PacerOptions{}); err == nil {
		t.Fatal("pacer must refuse non-SOLEIL modes")
	}
}

// ctxProbe records the allocation contexts it runs in, per entry
// point. As a relay's Source, its activations send a message each.
type ctxProbe struct {
	burstSource
	mu   sync.Mutex
	ctxs map[string][]string // "Activate"/"Invoke" -> distinct contexts
}

func (p *ctxProbe) note(entry string, env *thread.Env) {
	ctx := fmt.Sprintf("area=%s noheap=%v", env.Mem().Current().Name(), env.Mem().NoHeap())
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ctxs == nil {
		p.ctxs = make(map[string][]string)
	}
	if !slices.Contains(p.ctxs[entry], ctx) {
		p.ctxs[entry] = append(p.ctxs[entry], ctx)
	}
}

func (p *ctxProbe) seen(entry string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.ctxs[entry])
}

func (p *ctxProbe) Activate(env *thread.Env) error {
	p.note("Activate", env)
	return p.burstSource.Activate(env)
}

func (p *ctxProbe) Invoke(env *thread.Env, _, _ string, _ any) (any, error) {
	p.note("Invoke", env)
	return nil, nil
}

// TestDriverRunsInComponentArea checks that a component's activation
// loop runs in the allocation context its thread gets, on both clocks:
// the component's own memory area (a scope entered for the release),
// and no-heap exactly when its ThreadDomain is NHRT. RTSJ's assignment
// rules then judge a wall-clock driver's stores as they judge its
// thread's.
func TestDriverRunsInComponentArea(t *testing.T) {
	const n = 3
	src := model.Activation{Kind: model.PeriodicActivation, Period: 5 * time.Millisecond}
	snk := model.Activation{Kind: model.SporadicActivation}
	cases := []struct {
		name   string
		domain model.DomainDesc
		area   model.AreaDesc
	}{
		{"RT in heap", model.DomainDesc{Kind: model.RealtimeThread, Priority: 20},
			model.AreaDesc{Kind: model.HeapMemory}},
		{"NHRT in scope", model.DomainDesc{Kind: model.NoHeapRealtimeThread, Priority: 25},
			model.AreaDesc{Kind: model.ScopedMemory, ScopeName: "scope", Size: 1 << 20}},
	}
	for _, c := range cases {
		for _, clk := range []string{"virtual", "wall"} {
			t.Run(c.name+"/"+clk, func(t *testing.T) {
				source, sink := &ctxProbe{burstSource: burstSource{n: n}}, &ctxProbe{}
				sys := relaySystemIn(t, c.domain, c.area, src, snk, source, sink, 16)
				if clk == "virtual" {
					if err := sys.RunFor(20 * src.Period); err != nil {
						t.Fatal(err)
					}
				} else {
					p, err := NewPacer(sys, PacerOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if err := p.Run(); err != nil {
						t.Fatal(err)
					}
					deadline := time.Now().Add(10 * time.Second)
					for len(sink.seen("Invoke")) == 0 && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					p.Close()
				}
				if errs := sys.Errors(); len(errs) > 0 {
					t.Fatalf("%d errors; first: %v", len(errs), errs[0])
				}
				area, _ := sys.Area("mem")
				want := []string{fmt.Sprintf("area=%s noheap=%v", area.Name(), c.domain.Kind == model.NoHeapRealtimeThread)}
				for _, got := range []struct {
					entry string
					ctxs  []string
				}{{"Source.Activate", source.seen("Activate")}, {"Sink.Invoke", sink.seen("Invoke")}} {
					if !slices.Equal(got.ctxs, want) {
						t.Errorf("%s ran in %v, want %v", got.entry, got.ctxs, want)
					}
				}
			})
		}
	}
}

// TestPacerReleasesPeriodicAtStart checks that a paced periodic
// component's first release comes at start, as the scheduler releases
// it at t=0, not one period later.
func TestPacerReleasesPeriodicAtStart(t *testing.T) {
	const period = 300 * time.Millisecond
	src := &pacerSource{}
	sys := relaySystem(t,
		model.Activation{Kind: model.PeriodicActivation, Period: period},
		model.Activation{Kind: model.SporadicActivation}, src, &pacerSink{}, 64)
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for src.sent.Load() == 0 && time.Since(start) < 10*period {
		time.Sleep(time.Millisecond)
	}
	if first := time.Since(start); src.sent.Load() == 0 || first >= period/2 {
		t.Fatalf("first activation after %v (sent %d), want before half the %v period", first, src.sent.Load(), period)
	}
}

// failFirstSink fails the message with sequence number 0 and records
// the others.
type failFirstSink struct{ seqSink }

func (s *failFirstSink) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	if arg.(int) == 0 {
		return nil, errors.New("injected delivery failure")
	}
	return s.seqSink.Invoke(env, itf, op, arg)
}

// TestPacerRedrainsAfterFailedDrain queues messages before the pacer
// starts, so no wake token is pending for them, and fails the first:
// the driver must release the sink again for the rest without waiting
// for another arrival.
func TestPacerRedrainsAfterFailedDrain(t *testing.T) {
	const n = 5
	sporadic := model.Activation{Kind: model.SporadicActivation}
	snk := &failFirstSink{}
	sys := relaySystem(t, sporadic, sporadic, &forwarder{}, snk, 16)
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	env, closeEnv, err := sys.NewEnv(false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEnv()
	entry, _ := sys.Node("Source")
	for i := 0; i < n; i++ {
		if _, err := entry.Invoke(env, "in", "put", i); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(snk.received()) < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.Close()
	if got := snk.received(); !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Fatalf("sink got %v after failing message 0, want [1 2 3 4]", got)
	}
	if p.Errors() != 1 {
		t.Fatalf("pacer absorbed %d errors, want 1", p.Errors())
	}
}

// caller calls its "out" port synchronously with one sequence number
// per activation, n calls in all.
type caller struct {
	svc  *membrane.Services
	n    int
	sent atomic.Int64
}

func (c *caller) Init(svc *membrane.Services) error { c.svc = svc; return nil }

func (c *caller) Invoke(*thread.Env, string, string, any) (any, error) {
	return nil, errors.New("caller serves nothing")
}

func (c *caller) Activate(env *thread.Env) error {
	seq := int(c.sent.Load())
	if seq >= c.n {
		return nil
	}
	port, err := c.svc.Port("out")
	if err != nil {
		return err
	}
	if _, err := port.Call(env, "put", seq); err != nil {
		return err
	}
	c.sent.Add(1)
	return nil
}

// scopeAllocator allocates size bytes in the current area on every
// activation and every invocation, recording the invocations' sequence
// numbers.
type scopeAllocator struct {
	seqSink
	size        int64
	activations atomic.Int64
}

func (a *scopeAllocator) Activate(env *thread.Env) error {
	if _, err := env.Mem().Alloc(a.size, nil); err != nil {
		return err
	}
	a.activations.Add(1)
	return nil
}

func (a *scopeAllocator) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	if _, err := env.Mem().Alloc(a.size, nil); err != nil {
		return nil, err
	}
	return a.seqSink.Invoke(env, itf, op, arg)
}

// TestScopedComponentHoldsScopePerRelease deploys a periodic server in
// a 4 KB scope, called through a scope-enter binding by a periodic
// client in immortal memory, and has both the server's activations and
// its invocations allocate 1 KB in the scope, 20 of each. Its loop
// holds the scope only for each release, on both clocks: a loop that
// held it for the thread's life would exhaust it after four
// allocations, and would make it refuse the client's entry from
// immortal (a scope has one parent at a time).
func TestScopedComponentHoldsScopePerRelease(t *testing.T) {
	const n, period = 20, 5 * time.Millisecond
	deploy := func(t *testing.T, cli *caller, srv *scopeAllocator) *System {
		t.Helper()
		a := model.NewArchitecture("scoped-server")
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		imm, err := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
		must(err)
		sc, err := a.NewMemoryArea("sc", model.AreaDesc{Kind: model.ScopedMemory, ScopeName: "srvscope", Size: 4 << 10})
		must(err)
		periodic := model.Activation{Kind: model.PeriodicActivation, Period: period}
		for _, c := range []struct {
			name, domain string
			prio         int
			area         *model.Component
			itf          model.Interface
		}{
			{"Client", "cli", 20, imm, model.Interface{Name: "out", Role: model.ClientRole, Signature: "IPut"}},
			{"Server", "srv", 25, sc, model.Interface{Name: "in", Role: model.ServerRole, Signature: "IPut"}},
		} {
			td, err := a.NewThreadDomain(c.domain, model.DomainDesc{Kind: model.RealtimeThread, Priority: c.prio})
			must(err)
			must(a.AddChild(c.area, td))
			comp, err := a.NewActive(c.name, periodic)
			must(err)
			must(comp.AddInterface(c.itf))
			must(comp.SetContent(c.name + "Impl"))
			must(a.AddChild(td, comp))
		}
		_, err = a.Bind(model.Binding{
			Client:   model.Endpoint{Component: "Client", Interface: "out"},
			Server:   model.Endpoint{Component: "Server", Interface: "in"},
			Protocol: model.Synchronous,
			Pattern:  "scope-enter",
		})
		must(err)
		reg := NewRegistry()
		must(reg.Register("ClientImpl", func() membrane.Content { return cli }))
		must(reg.Register("ServerImpl", func() membrane.Content { return srv }))
		sys, err := Deploy(a, Config{Mode: Soleil, Registry: reg})
		must(err)
		return sys
	}
	for _, clk := range []string{"virtual", "wall"} {
		t.Run(clk, func(t *testing.T) {
			cli, srv := &caller{n: n}, &scopeAllocator{size: 1 << 10}
			sys := deploy(t, cli, srv)
			if clk == "virtual" {
				if err := sys.RunFor((n + 5) * period); err != nil {
					t.Fatal(err)
				}
			} else {
				p, err := NewPacer(sys, PacerOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Run(); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(10 * time.Second)
				for (cli.sent.Load() < n || srv.activations.Load() < n) && len(sys.Errors()) == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				p.Close()
			}
			if errs := sys.Errors(); len(errs) > 0 {
				t.Fatalf("%d errors; first: %v", len(errs), errs[0])
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			if got := srv.received(); !slices.Equal(got, want) {
				t.Errorf("server received %v, want %v", got, want)
			}
			if got := srv.activations.Load(); got < n {
				t.Errorf("server activated %d times, want at least %d", got, n)
			}
		})
	}
}

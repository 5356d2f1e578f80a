package assembly

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/qos"
	"soleil/internal/rtsj/thread"
)

// relaySystem deploys Source -> Sink over one asynchronous binding,
// both in one real-time domain in immortal memory. Source serves "in"
// and sends on "out"; Sink serves "in".
func relaySystem(tb testing.TB, srcAct, snkAct model.Activation, src, snk membrane.Content, bufferSize int) *System {
	tb.Helper()
	return relaySystemIn(tb, model.DomainDesc{Kind: model.RealtimeThread, Priority: 20},
		model.AreaDesc{Kind: model.ImmortalMemory}, srcAct, snkAct, src, snk, bufferSize)
}

// relaySystemIn is relaySystem with both components in a thread domain
// "td" and a memory area "mem" of the given descriptions.
func relaySystemIn(tb testing.TB, domain model.DomainDesc, area model.AreaDesc, srcAct, snkAct model.Activation, src, snk membrane.Content, bufferSize int) *System {
	tb.Helper()
	a := model.NewArchitecture("relay")
	td, _ := a.NewThreadDomain("td", domain)
	mem, _ := a.NewMemoryArea("mem", area)
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(a.AddChild(mem, td))
	for _, c := range []struct {
		name, content string
		act           model.Activation
		itfs          []model.Interface
	}{
		{"Source", "SourceImpl", srcAct, []model.Interface{
			{Name: "in", Role: model.ServerRole, Signature: "IPut"},
			{Name: "out", Role: model.ClientRole, Signature: "IPut"},
		}},
		{"Sink", "SinkImpl", snkAct, []model.Interface{
			{Name: "in", Role: model.ServerRole, Signature: "IPut"},
		}},
	} {
		comp, err := a.NewActive(c.name, c.act)
		must(err)
		for _, itf := range c.itfs {
			must(comp.AddInterface(itf))
		}
		must(comp.SetContent(c.content))
		must(a.AddChild(td, comp))
	}
	_, err := a.Bind(model.Binding{
		Client:     model.Endpoint{Component: "Source", Interface: "out"},
		Server:     model.Endpoint{Component: "Sink", Interface: "in"},
		Protocol:   model.Asynchronous,
		BufferSize: bufferSize,
	})
	must(err)
	reg := NewRegistry()
	must(reg.Register("SourceImpl", func() membrane.Content { return src }))
	must(reg.Register("SinkImpl", func() membrane.Content { return snk }))
	sys, err := Deploy(a, Config{Mode: Soleil, Registry: reg})
	must(err)
	return sys
}

// forwarder relays every invocation on "in" to its "out" port.
type forwarder struct{ svc *membrane.Services }

func (f *forwarder) Init(svc *membrane.Services) error { f.svc = svc; return nil }
func (f *forwarder) Activate(*thread.Env) error        { return nil }

func (f *forwarder) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	port, err := f.svc.Port("out")
	if err != nil {
		return nil, err
	}
	return nil, port.Send(env, op, arg)
}

// seqSink records the sequence numbers it receives and, on the
// virtual clock, the release time of the release delivering each.
type seqSink struct {
	mu       sync.Mutex
	seqs     []int
	releases []time.Duration
}

func (s *seqSink) Init(*membrane.Services) error { return nil }
func (s *seqSink) Activate(*thread.Env) error    { return nil }

func (s *seqSink) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seqs = append(s.seqs, arg.(int))
	if tc := env.Sched(); tc != nil {
		s.releases = append(s.releases, time.Duration(tc.ReleaseTime()))
	}
	return nil, nil
}

func (s *seqSink) received() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.seqs...)
}

// TestConcurrentInjectorsKeepBufferSingleProducer pins the invariant
// the SPSC RTBuffer relies on: several goroutines invoking one SOLEIL
// entry component concurrently, as the load driver's injectors do,
// are serialized by the ActiveInterceptor's run-to-completion lock,
// so the entry's outbound buffer sees one producer at a time and every
// message arrives downstream exactly once.
func TestConcurrentInjectorsKeepBufferSingleProducer(t *testing.T) {
	const injectors, perInjector = 4, 250
	snk := &seqSink{}
	sporadic := model.Activation{Kind: model.SporadicActivation}
	sys := relaySystem(t, sporadic, sporadic, &forwarder{}, snk, 16)
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	entry, _ := sys.Node("Source")

	var wg sync.WaitGroup
	errs := make(chan error, injectors)
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			env, closeEnv, err := sys.NewEnv(false)
			if err != nil {
				errs <- err
				return
			}
			defer closeEnv()
			for i := 0; i < perInjector; {
				_, err := entry.Invoke(env, "in", "put", g*perInjector+i)
				switch {
				case err == nil:
					i++
				case errors.Is(err, qos.ErrBackpressure):
					runtime.Gosched()
				default:
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const total = injectors * perInjector
	deadline := time.Now().Add(10 * time.Second)
	for len(snk.received()) < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := snk.received()
	seen := make(map[int]int, len(got))
	for _, seq := range got {
		seen[seq]++
	}
	for seq := 0; seq < total; seq++ {
		if seen[seq] != 1 {
			t.Fatalf("message %d arrived %d times (%d deliveries in all)", seq, seen[seq], len(got))
		}
	}
	if len(got) != total {
		t.Fatalf("sink got %d messages, want %d", len(got), total)
	}
}

// burstSource sends one sequence number per activation until it has
// sent n.
type burstSource struct {
	forwarder
	n, sent int
}

func (b *burstSource) Activate(env *thread.Env) error {
	if b.sent == b.n {
		return nil
	}
	port, err := b.svc.Port("out")
	if err != nil {
		return err
	}
	if err := port.Send(env, "put", b.sent); err != nil {
		return err
	}
	b.sent++
	return nil
}

// releaseLog wraps a node and records the start of every Deliver that
// delivered at least one message.
type releaseLog struct {
	Node
	mu     sync.Mutex
	starts []time.Time
}

func (r *releaseLog) Deliver(env *thread.Env) (int, error) {
	start := time.Now()
	n, err := r.Node.Deliver(env)
	if n > 0 {
		r.mu.Lock()
		r.starts = append(r.starts, start)
		r.mu.Unlock()
	}
	return n, err
}

// TestSporadicMITParity feeds a burst faster than the sink's minimum
// interarrival time and checks both clocks apply the same rule:
// releases that deliver start at least the MIT apart, and every
// message arrives once, in order.
func TestSporadicMITParity(t *testing.T) {
	const (
		burst  = 12
		period = time.Millisecond
		mit    = 10 * time.Millisecond
	)
	srcAct := model.Activation{Kind: model.PeriodicActivation, Period: period}
	snkAct := model.Activation{Kind: model.SporadicActivation, Period: mit}
	checkSeqs := func(t *testing.T, got []int) {
		t.Helper()
		if len(got) != burst {
			t.Fatalf("sink got %d messages, want %d: %v", len(got), burst, got)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("message %d is %d: %v", i, seq, got)
			}
		}
	}
	checkSpacing := func(t *testing.T, starts []time.Duration, slack time.Duration) {
		t.Helper()
		if len(starts) < 2 {
			t.Fatalf("%d delivering releases; the burst should need several", len(starts))
		}
		for i := 1; i < len(starts); i++ {
			if gap := starts[i] - starts[i-1]; gap < mit-slack {
				t.Fatalf("releases %d and %d start %v apart, MIT is %v (starts %v)", i-1, i, gap, mit, starts)
			}
		}
	}

	t.Run("virtual", func(t *testing.T) {
		snk := &seqSink{}
		sys := relaySystem(t, srcAct, snkAct, &burstSource{n: burst}, snk, 64)
		if err := sys.RunFor(20 * mit); err != nil {
			t.Fatal(err)
		}
		checkSeqs(t, snk.received())
		var starts []time.Duration
		for i, r := range snk.releases {
			if i == 0 || r != snk.releases[i-1] {
				starts = append(starts, r)
			}
		}
		checkSpacing(t, starts, 0)
	})

	t.Run("wall", func(t *testing.T) {
		snk := &seqSink{}
		sys := relaySystem(t, srcAct, snkAct, &burstSource{n: burst}, snk, 64)
		// Start before wrapping: Start initializes the SOLEIL node
		// behind the wrapper.
		if err := sys.Start(); err != nil {
			t.Fatal(err)
		}
		log := &releaseLog{Node: sys.nodes["Sink"]}
		sys.nodes["Sink"] = log
		p, err := NewPacer(sys, PacerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for len(snk.received()) < burst && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		// Let any spurious extra release show up before stopping.
		time.Sleep(2 * mit)
		p.Close()
		checkSeqs(t, snk.received())
		var starts []time.Duration
		for _, s := range log.starts {
			starts = append(starts, s.Sub(log.starts[0]))
		}
		// The pacer stamps a release just before calling Deliver; the
		// slack absorbs the log's own, later timestamp.
		checkSpacing(t, starts, mit/5)
	})
}

// discardPort stands in for an async stub so the benchmark below
// measures the release wake alone.
type discardPort struct{}

func (discardPort) Call(*thread.Env, string, any) (any, error) { return nil, fmt.Errorf("discard") }
func (discardPort) Send(*thread.Env, string, any) error        { return nil }

// BenchmarkHotPathNotifyWake prices the wall-clock release trigger:
// an async send through notifyPort posting a wake token on the
// channel a running pacer published for the receiver. It must not
// allocate.
func BenchmarkHotPathNotifyWake(b *testing.B) {
	sporadic := model.Activation{Kind: model.SporadicActivation}
	sys := relaySystem(b, sporadic, sporadic, &forwarder{}, &seqSink{}, 16)
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Run(); err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	env, closeEnv, err := sys.NewEnv(false)
	if err != nil {
		b.Fatal(err)
	}
	defer closeEnv()
	port := &notifyPort{inner: discardPort{}, target: sys.holders["Sink"]}
	if port.target.wake.Load() == nil {
		b.Fatal("pacer published no wake channel")
	}
	var arg any = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := port.Send(env, "put", arg); err != nil {
			b.Fatal(err)
		}
	}
}

package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/comm"
	"soleil/internal/membrane"
	"soleil/internal/qos"
	"soleil/internal/rtsj/thread"
)

// epoch is the origin of every timestamp the benchmark takes: all
// instants are monotonic nanoseconds since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Outcomes of one arrival.
const (
	stPending uint32 = iota
	stCompleted
	stShed      // refused by a contract's admission gate
	stOverflow  // refused by a full buffer or link queue
	stInjectErr // the entry component refused the injection
)

// ledger is the benchmark's own account of one drive: every arrival
// is an id into it, travels the system as an int64 payload, and ends
// in exactly one outcome. Conservation is checked against it, not
// against any counter of the program.
type ledger struct {
	intended []int64 // due instant of each arrival
	latency  []int64 // sink instant minus due instant, when completed
	lateness []int64 // injection instant minus due instant
	state    []atomic.Uint32

	completed, shed, overflow, injectErr atomic.Int64
	// duplicate counts arrivals completing (or dropping) twice;
	// foreign counts payloads that are not an id of this drive.
	duplicate, foreign atomic.Int64

	mu       sync.Mutex
	bindings map[string]*bindingDrops
}

// bindingDrops splits one client binding's drops by cause.
type bindingDrops struct{ shed, overflow atomic.Int64 }

func newLedger(intended []int64) *ledger {
	n := len(intended)
	return &ledger{
		intended: intended,
		latency:  make([]int64, n),
		lateness: make([]int64, n),
		state:    make([]atomic.Uint32, n),
		bindings: make(map[string]*bindingDrops),
	}
}

// id decodes a payload into an arrival id of this drive.
func (l *ledger) id(arg any) (int64, bool) {
	id, ok := arg.(int64)
	if !ok || id < 0 || id >= int64(len(l.intended)) {
		l.foreign.Add(1)
		return 0, false
	}
	return id, true
}

// resolve moves an arrival out of pending; a second resolution is a
// duplicate.
func (l *ledger) resolve(id int64, st uint32) bool {
	if !l.state[id].CompareAndSwap(stPending, st) {
		l.duplicate.Add(1)
		return false
	}
	switch st {
	case stCompleted:
		l.completed.Add(1)
	case stShed:
		l.shed.Add(1)
	case stOverflow:
		l.overflow.Add(1)
	case stInjectErr:
		l.injectErr.Add(1)
	}
	return true
}

// complete records the sink's arrival of id.
func (l *ledger) complete(id int64, at int64) {
	// The latency is written before the state flips, so a reader that
	// sees stCompleted also sees it.
	lat := at - l.intended[id]
	if l.state[id].Load() == stPending {
		l.latency[id] = lat
	}
	l.resolve(id, stCompleted)
}

// resolved counts arrivals with an outcome.
func (l *ledger) resolved() int64 {
	return l.completed.Load() + l.shed.Load() + l.overflow.Load() + l.injectErr.Load()
}

// binding returns the drop counters of one client binding.
func (l *ledger) binding(name string) *bindingDrops {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.bindings[name]
	if !ok {
		b = &bindingDrops{}
		l.bindings[name] = b
	}
	return b
}

// dropCause classifies a refused Send: a contract gate's shed, a full
// buffer or link queue, or not backpressure at all (0).
func dropCause(port membrane.Port, err error) uint32 {
	if sp, ok := port.(*spanPort); ok {
		port = sp.inner
	}
	if errors.Is(err, comm.ErrFull) {
		return stOverflow
	}
	var bp *qos.Backpressure
	if gp, ok := port.(*membrane.GatedPort); ok && errors.As(err, &bp) && bp.Name == gp.Gate().Name() {
		return stShed
	}
	if errors.Is(err, qos.ErrBackpressure) {
		return stOverflow
	}
	return 0
}

// relay is the pipeline stage and the sporadic gateway/worker: a tiny
// fold over the id, then forward on "out". A refused forward is an
// outcome of the arrival, never a stall.
type relay struct {
	led   *ledger
	svc   *membrane.Services
	drops *bindingDrops
	acc   atomic.Int64
}

func (r *relay) Init(svc *membrane.Services) error {
	r.svc = svc
	r.drops = r.led.binding(svc.Name() + ".out")
	return nil
}

func (r *relay) Activate(*thread.Env) error { return nil }

func (r *relay) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	id, ok := r.led.id(arg)
	if !ok {
		return nil, nil
	}
	r.acc.Add(id & 0xffff)
	out, err := r.svc.Port("out")
	if err != nil {
		return nil, err
	}
	if err := out.Send(env, "put", id); err != nil {
		switch cause := dropCause(out, err); cause {
		case stShed:
			r.drops.shed.Add(1)
			r.led.resolve(id, cause)
		case stOverflow:
			r.drops.overflow.Add(1)
			r.led.resolve(id, cause)
		default:
			return nil, err
		}
	}
	return nil, nil
}

// sink completes every path.
type sink struct{ led *ledger }

func (s *sink) Init(*membrane.Services) error { return nil }
func (s *sink) Activate(*thread.Env) error    { return nil }

func (s *sink) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	if id, ok := s.led.id(arg); ok {
		s.led.complete(id, now())
	}
	return nil, nil
}

// newRegistry registers the benchmark's contents under the class
// names load.Synthesize assigns. With a tracer, every factory is
// wrapped so the content's Invoke is timed.
func newRegistry(led *ledger, tr *tracer) (*assembly.Registry, error) {
	reg := assembly.NewRegistry()
	for class, factory := range map[string]func() membrane.Content{
		"LoadRelayImpl": func() membrane.Content { return &relay{led: led} },
		"LoadSinkImpl":  func() membrane.Content { return &sink{led: led} },
	} {
		if tr != nil {
			factory = tr.wrapFactory(factory)
		}
		if err := reg.Register(class, factory); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

package assembly

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soleil/internal/comm"
	"soleil/internal/membrane"
	"soleil/internal/obs"
	"soleil/internal/patterns"
	"soleil/internal/rtsj/memory"
	"soleil/internal/rtsj/sched"
	"soleil/internal/rtsj/thread"
)

// Node is the executable form of one functional component, uniform
// across the three assembly modes. Thread bodies, the benchmark
// harness and the reconfiguration manager all drive components
// through this interface.
type Node interface {
	// Name returns the component name.
	Name() string
	// Activate runs one release of an active component's own logic.
	Activate(env *thread.Env) error
	// Deliver drains pending asynchronous messages into the
	// component, returning how many were processed.
	Deliver(env *thread.Env) (int, error)
	// Invoke performs an incoming synchronous invocation.
	Invoke(env *thread.Env, itf, op string, arg any) (any, error)
	// Port resolves an outgoing client interface.
	Port(itf string) (membrane.Port, error)
	// ContentOf exposes the wrapped content.
	ContentOf() membrane.Content
}

// taskHolder defers the task wiring of notify ports until threads are
// spawned (only a sporadic receiver's task is wired), and holds the
// wake channel a wall-clock pacer publishes.
type taskHolder struct {
	task *sched.Task
	wake atomic.Pointer[chan struct{}]
}

// notifyPort wraps an async stub so that each Send also releases the
// receiving component: under the simulated scheduler by firing its
// sporadic task, under a wall-clock pacer by posting a wake token.
type notifyPort struct {
	inner  membrane.Port
	target *taskHolder
}

var _ membrane.Port = (*notifyPort)(nil)

func (p *notifyPort) Call(env *thread.Env, op string, arg any) (any, error) {
	return p.inner.Call(env, op, arg)
}

func (p *notifyPort) Send(env *thread.Env, op string, arg any) error {
	if err := p.inner.Send(env, op, arg); err != nil {
		return err
	}
	if tc := env.Sched(); tc != nil && p.target.task != nil {
		return tc.Fire(p.target.task)
	}
	if wake := p.target.wake.Load(); wake != nil {
		post(*wake)
	}
	return nil
}

// post leaves a wake token on a pacer's wake channel. A token already
// pending means a release is already due, which drains this message
// too.
func post(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// --- SOLEIL ---------------------------------------------------------------------

// soleilNode is the full-componentization node: a reified membrane
// plus the async skeletons of its inbound bindings.
type soleilNode struct {
	m         *membrane.Membrane
	skeletons []*membrane.AsyncSkeleton
	active    bool

	// Observability wiring of an instrumented deployment (nil
	// otherwise): activations are metered and become the root spans
	// that activation-driven sends parent under.
	system string
	cm     *obs.ComponentMetrics
	tracer *obs.Tracer
}

var _ Node = (*soleilNode)(nil)

func (n *soleilNode) Name() string                 { return n.m.Name() }
func (n *soleilNode) ContentOf() membrane.Content  { return n.m.Content() }
func (n *soleilNode) Membrane() *membrane.Membrane { return n.m }

func (n *soleilNode) Activate(env *thread.Env) error {
	ac, ok := n.m.Content().(membrane.ActiveContent)
	if !ok {
		return fmt.Errorf("assembly: component %q has no activation logic", n.Name())
	}
	if failed, cause := n.m.Lifecycle().Failure(); failed {
		return fmt.Errorf("%w: %q: %v", membrane.ErrFailed, n.Name(), cause)
	}
	if !n.m.Lifecycle().Started() {
		return fmt.Errorf("assembly: component %q is stopped", n.Name())
	}
	if n.cm == nil {
		return ac.Activate(env)
	}

	s := n.cm.Series("activation", "run")
	s.Invocations.Inc()
	cur := obs.NewSpanContext(env.Span())
	prev := env.SetSpan(cur)
	start := time.Now()
	panicked := true
	errored := false
	defer func() {
		d := time.Since(start)
		s.Latency.Observe(d)
		if panicked {
			s.Panics.Inc()
		}
		env.SetSpan(prev)
		if n.tracer != nil {
			n.tracer.Record(obs.Span{
				Trace: cur.TraceID, ID: cur.SpanID, Parent: prev.SpanID,
				System: n.system, Component: n.Name(),
				Interface: "activation", Op: "run",
				Start: start, Duration: d, Err: errored || panicked,
			})
		}
	}()
	err := ac.Activate(env)
	panicked = false
	if err != nil {
		errored = true
		s.Errors.Inc()
	}
	return err
}

func (n *soleilNode) Deliver(env *thread.Env) (int, error) {
	total := 0
	for _, sk := range n.skeletons {
		k, err := sk.Drain(env)
		total += k
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (n *soleilNode) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	return n.m.Dispatch(&membrane.Invocation{Interface: itf, Op: op, Arg: arg, Env: env})
}

func (n *soleilNode) Port(itf string) (membrane.Port, error) {
	return n.m.Services().Port(itf)
}

// --- MERGE-ALL / ULTRA-MERGE -----------------------------------------------------

// mergedNode realizes both merged modes: component and membrane
// collapsed into one dispatch unit. MERGE-ALL keeps the run-to-
// completion lock and the (rebindable) binding table; ULTRA-MERGE
// drops the lock and the System freezes the bindings.
type mergedNode struct {
	name    string
	content membrane.Content
	active  bool
	locking bool // false for ULTRA-MERGE
	mu      sync.Mutex
	binds   *membrane.BindingController
	svc     *membrane.Services
	inbound []*comm.RTBuffer
}

var _ Node = (*mergedNode)(nil)

func newMergedNode(name string, content membrane.Content, active, locking bool) *mergedNode {
	n := &mergedNode{
		name:    name,
		content: content,
		active:  active,
		locking: locking,
		binds:   membrane.NewBindingController(name),
	}
	n.svc = membrane.NewServices(name, n.binds)
	return n
}

func (n *mergedNode) Name() string                { return n.name }
func (n *mergedNode) ContentOf() membrane.Content { return n.content }

func (n *mergedNode) Activate(env *thread.Env) error {
	ac, ok := n.content.(membrane.ActiveContent)
	if !ok {
		return fmt.Errorf("assembly: component %q has no activation logic", n.name)
	}
	return ac.Activate(env)
}

func (n *mergedNode) Deliver(env *thread.Env) (int, error) {
	total := 0
	for _, buf := range n.inbound {
		for {
			v, ok, err := buf.Dequeue(env.Mem())
			if err != nil {
				return total, err
			}
			if !ok {
				break
			}
			msg, isMsg := v.(membrane.AsyncMessage)
			if !isMsg {
				return total, fmt.Errorf("assembly: foreign message %T on %s", v, buf.Name())
			}
			if _, err := n.Invoke(env, msg.Interface, msg.Op, msg.Arg); err != nil {
				return total, err
			}
			total++
		}
	}
	return total, nil
}

func (n *mergedNode) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	if n.active && n.locking {
		n.mu.Lock()
		defer n.mu.Unlock()
	}
	return n.content.Invoke(env, itf, op, arg)
}

func (n *mergedNode) Port(itf string) (membrane.Port, error) { return n.binds.Lookup(itf) }

// directSyncPort is the merged modes' synchronous client port: the
// binding's memory pattern is inlined and the call goes straight into
// the target node without Invocation boxing or interceptor chains.
type directSyncPort struct {
	target  Node
	itf     string
	pattern patterns.Kind
	scope   *memory.Area
}

var _ membrane.Port = (*directSyncPort)(nil)

func (p *directSyncPort) Call(env *thread.Env, op string, arg any) (any, error) {
	switch p.pattern {
	case patterns.ScopeEnter, patterns.Portal:
		var result any
		err := patterns.EnterAndCall(env.Mem(), p.scope, func() error {
			var err error
			result, err = p.target.Invoke(env, p.itf, op, arg)
			return err
		})
		return patterns.CopyValue(result), err
	case patterns.DeepCopy:
		result, err := p.target.Invoke(env, p.itf, op, patterns.CopyValue(arg))
		return patterns.CopyValue(result), err
	default:
		return p.target.Invoke(env, p.itf, op, arg)
	}
}

func (p *directSyncPort) Send(env *thread.Env, op string, arg any) error {
	return fmt.Errorf("%w (%s)", membrane.ErrSyncPort, p.itf)
}

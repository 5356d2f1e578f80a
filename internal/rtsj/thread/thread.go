// Package thread binds the scheduler and the memory model into RTSJ's
// three thread flavours: RealtimeThread, NoHeapRealtimeThread (NHRT)
// and regular threads.
//
// A thread is a scheduler task plus a memory allocation context. The
// package enforces the creation-time rules the paper's ThreadDomain
// components rely on: NHRTs get no-heap contexts and must start
// outside heap memory, real-time threads must use real-time
// priorities, and regular threads must not.
package thread

import (
	"fmt"
	"sync"

	"soleil/internal/obs"
	"soleil/internal/rtsj/memory"
	"soleil/internal/rtsj/sched"
)

// Kind is the RTSJ thread flavour.
type Kind int

// Thread kinds.
const (
	// Regular is an ordinary (garbage-collected, non-real-time)
	// thread.
	Regular Kind = iota + 1
	// Realtime is an RTSJ RealtimeThread: real-time priority, may
	// touch any memory area.
	Realtime
	// NoHeap is an RTSJ NoHeapRealtimeThread: real-time priority,
	// never interacts with heap memory, and (on a real RTSJ VM) can
	// therefore never be preempted by the garbage collector.
	NoHeap
)

// String returns the ADL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Regular:
		return "Regular"
	case Realtime:
		return "RT"
	case NoHeap:
		return "NHRT"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts an ADL thread-type spelling into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "Regular", "regular":
		return Regular, nil
	case "RT", "RealTime", "realtime":
		return Realtime, nil
	case "NHRT", "nhrt":
		return NoHeap, nil
	default:
		return 0, fmt.Errorf("thread: unknown thread kind %q", s)
	}
}

// Runtime couples a scheduler with a memory runtime; threads are
// spawned against a Runtime.
type Runtime struct {
	sched *sched.Scheduler
	mem   *memory.Runtime
}

// NewRuntime creates a thread runtime over the given scheduler and
// memory runtime.
func NewRuntime(s *sched.Scheduler, m *memory.Runtime) *Runtime {
	return &Runtime{sched: s, mem: m}
}

// Scheduler returns the underlying scheduler.
func (r *Runtime) Scheduler() *sched.Scheduler { return r.sched }

// Memory returns the underlying memory runtime.
func (r *Runtime) Memory() *memory.Runtime { return r.mem }

// Env is the execution environment handed to a thread body: the
// scheduler context plus the thread's memory allocation context.
type Env struct {
	tc  *sched.TaskContext
	mem *memory.Context

	// span is the current trace span of the executing thread. It is
	// owned by that thread alone (each thread has its own Env), so
	// plain reads and writes suffice.
	span obs.SpanContext
}

// NewEnv assembles an environment from its parts. Spawn builds
// environments for scheduled threads; NewEnv exists for execution
// outside the simulated scheduler — the wall-clock benchmark harness
// and tests — where tc may be nil.
func NewEnv(tc *sched.TaskContext, mem *memory.Context) *Env {
	return &Env{tc: tc, mem: mem}
}

// Sched returns the scheduler context (Consume, WaitForNextPeriod,
// Fire, ...).
func (e *Env) Sched() *sched.TaskContext { return e.tc }

// Mem returns the memory allocation context (Enter, Alloc, ...).
func (e *Env) Mem() *memory.Context { return e.mem }

// Span returns the thread's current trace span context. A nil Env
// (infrastructure driven without an environment) has no span.
func (e *Env) Span() obs.SpanContext {
	if e == nil {
		return obs.SpanContext{}
	}
	return e.span
}

// SetSpan installs s as the current span and returns the previous one
// so callers can restore it with stack discipline:
//
//	prev := env.SetSpan(child)
//	defer env.SetSpan(prev)
//
// SetSpan on a nil Env is a no-op.
func (e *Env) SetSpan(s obs.SpanContext) (prev obs.SpanContext) {
	if e == nil {
		return obs.SpanContext{}
	}
	prev = e.span
	e.span = s
	return prev
}

// Config describes a thread to spawn.
type Config struct {
	Name     string
	Kind     Kind
	Priority sched.Priority
	Release  sched.Release
	// InitialArea is the thread's initial allocation context. NHRTs
	// may not start in heap memory.
	InitialArea *memory.Area
	// Run is the thread body.
	Run func(*Env)
	// OnMiss is the optional deadline-miss handler.
	OnMiss func(sched.MissInfo)
}

// Thread is a spawned RTSJ-style thread.
type Thread struct {
	name string
	kind Kind
	task *sched.Task
	area *memory.Area

	mu  sync.Mutex
	err error
}

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// Kind returns the thread flavour.
func (t *Thread) Kind() Kind { return t.kind }

// Task returns the underlying scheduler task.
func (t *Thread) Task() *sched.Task { return t.task }

// Err returns the error, if any, that prevented the thread body from
// running (e.g. an illegal initial memory area discovered at release
// time). Call it after the scheduler run completes.
func (t *Thread) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// NewEnv builds the environment the thread's body runs in, for
// running that body outside the simulated scheduler (tc is nil then):
// an allocation context in the thread's initial area, no-heap for an
// NHRT. The returned function closes the context.
func (t *Thread) NewEnv(tc *sched.TaskContext) (*Env, func(), error) {
	mctx, err := memory.NewContext(t.area, t.kind == NoHeap)
	if err != nil {
		return nil, nil, fmt.Errorf("thread %q: %w", t.name, err)
	}
	return &Env{tc: tc, mem: mctx}, mctx.Close, nil
}

func (t *Thread) setErr(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.err = err
}

// Spawn creates a thread. The memory context is created when the
// thread's first release dispatches and closed when the body returns.
func (r *Runtime) Spawn(cfg Config) (*Thread, error) {
	if cfg.Run == nil {
		return nil, fmt.Errorf("thread: %q needs a body", cfg.Name)
	}
	if cfg.InitialArea == nil {
		return nil, fmt.Errorf("thread: %q needs an initial memory area", cfg.Name)
	}
	switch cfg.Kind {
	case Regular:
		if cfg.Priority.RealTime() {
			return nil, fmt.Errorf("thread: regular thread %q may not use real-time priority %d",
				cfg.Name, cfg.Priority)
		}
	case Realtime:
		if !cfg.Priority.RealTime() {
			return nil, fmt.Errorf("thread: real-time thread %q needs a real-time priority, got %d",
				cfg.Name, cfg.Priority)
		}
	case NoHeap:
		if !cfg.Priority.RealTime() {
			return nil, fmt.Errorf("thread: NHRT %q needs a real-time priority, got %d",
				cfg.Name, cfg.Priority)
		}
		if cfg.InitialArea.Kind() == memory.Heap {
			return nil, &memory.MemoryAccessError{Op: "start NHRT in", Area: cfg.InitialArea.Name()}
		}
	default:
		return nil, fmt.Errorf("thread: %q has unknown kind %v", cfg.Name, cfg.Kind)
	}

	th := &Thread{name: cfg.Name, kind: cfg.Kind, area: cfg.InitialArea}
	task, err := r.sched.NewTask(sched.TaskConfig{
		Name:     cfg.Name,
		Priority: cfg.Priority,
		Release:  cfg.Release,
		OnMiss:   cfg.OnMiss,
		Body: func(tc *sched.TaskContext) {
			env, closeEnv, err := th.NewEnv(tc)
			if err != nil {
				th.setErr(err)
				return
			}
			defer closeEnv()
			cfg.Run(env)
		},
	})
	if err != nil {
		return nil, err
	}
	th.task = task
	return th, nil
}

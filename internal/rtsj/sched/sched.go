package sched

import (
	"container/heap"
	"fmt"
	"sync"

	"soleil/internal/rtsj/clock"
)

// Scheduler is the simulation kernel. Create tasks with NewTask, then
// execute the system with Run. A Scheduler can be Run once.
type Scheduler struct {
	clk   *clock.Virtual
	tasks []*Task
	calls chan *call
	wg    sync.WaitGroup

	events    eventHeap
	eventSeq  int64
	enqueues  int64
	running   *Task
	stopping  bool
	ran       bool
	finished  int
	idleTime  clock.Duration
	preempted int64

	traceOn  bool
	traceCap int
	trace    []TraceEvent
}

// New creates an empty scheduler with a fresh virtual clock.
func New() *Scheduler {
	return &Scheduler{
		clk:   clock.NewVirtual(),
		calls: make(chan *call),
	}
}

// Clock returns the scheduler's virtual clock.
func (s *Scheduler) Clock() *clock.Virtual { return s.clk }

// Preemptions returns the number of times a consuming task was
// preempted by a higher-priority dispatch during the last run.
func (s *Scheduler) Preemptions() int64 { return s.preempted }

// IdleTime returns the virtual time during which no task was ready.
func (s *Scheduler) IdleTime() clock.Duration { return s.idleTime }

// TaskConfig configures a new task.
type TaskConfig struct {
	Name     string
	Priority Priority
	Release  Release
	// Body is the task's code. Periodic bodies are first invoked at
	// the first release and typically loop on WaitForNextPeriod;
	// sporadic bodies are first invoked at the first arrival and loop
	// on WaitForRelease; aperiodic bodies are first invoked at Start
	// and may loop on WaitForRelease too.
	Body func(*TaskContext)
	// OnMiss, if set, is invoked by the kernel when a monitored
	// deadline passes without completion. It runs inside the kernel:
	// it must not call TaskContext methods.
	OnMiss func(MissInfo)
	// OnOverrun, if set, is invoked by the kernel when a release
	// consumes more CPU than its declared Cost budget. Same
	// restrictions as OnMiss.
	OnOverrun func(OverrunInfo)
}

// NewTask registers a task. All tasks must be created before Run.
func (s *Scheduler) NewTask(cfg TaskConfig) (*Task, error) {
	if s.ran {
		return nil, fmt.Errorf("sched: cannot add task %q after Run", cfg.Name)
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("sched: task needs a name")
	}
	if !cfg.Priority.Valid() {
		return nil, fmt.Errorf("sched: task %q priority %d outside [%d,%d]",
			cfg.Name, cfg.Priority, MinPriority, MaxPriority)
	}
	if cfg.Body == nil {
		return nil, fmt.Errorf("sched: task %q needs a body", cfg.Name)
	}
	if err := cfg.Release.validate(); err != nil {
		return nil, fmt.Errorf("task %q: %w", cfg.Name, err)
	}
	for _, t := range s.tasks {
		if t.name == cfg.Name {
			return nil, fmt.Errorf("sched: duplicate task name %q", cfg.Name)
		}
	}
	t := &Task{
		name:      cfg.Name,
		prio:      cfg.Priority,
		effPrio:   cfg.Priority,
		release:   cfg.Release,
		body:      cfg.Body,
		onMiss:    cfg.OnMiss,
		onOverrun: cfg.OnOverrun,
		sched:     s,
		state:     stateNew,
		cont:      make(chan contMsg, 1),
		held:      make(map[*Mutex]bool),
	}
	s.tasks = append(s.tasks, t)
	return t, nil
}

// Tasks returns the registered tasks in creation order.
func (s *Scheduler) Tasks() []*Task {
	out := make([]*Task, len(s.tasks))
	copy(out, s.tasks)
	return out
}

// --- events -----------------------------------------------------------------

type eventKind int

const (
	evRelease eventKind = iota + 1
	evWakeup
	evDeadline
)

type event struct {
	time clock.Time
	seq  int64 // insertion order tiebreak
	kind eventKind
	task *Task
	// rel identifies the release the event belongs to (deadline
	// monitoring), or carries the nominal release time (evRelease).
	rel        int64
	nominal    clock.Time
	deadlineAt clock.Time
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)         { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any           { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (s *Scheduler) pushEvent(e *event) { e.seq = s.eventSeq; s.eventSeq++; heap.Push(&s.events, e) }
func (s *Scheduler) peekEvent() *event {
	if len(s.events) == 0 {
		return nil
	}
	return s.events[0]
}
func (s *Scheduler) popEvent() *event { return heap.Pop(&s.events).(*event) }

// --- syscall plumbing ---------------------------------------------------------

type callKind int

const (
	callExit callKind = iota + 1
	callConsume
	callSleep
	callWFNP // wait for next period
	callWaitRelease
	callFire
	callYield
	callLock
	callUnlock
)

type call struct {
	task   *Task
	kind   callKind
	d      clock.Duration
	target *Task
	m      *Mutex
	err    chan error // immediate reply for non-yielding calls
}

// submit sends a syscall from task code to the kernel.
func (t *Task) submit(c *call) {
	c.task = t
	t.sched.calls <- c
}

// block parks the task until the kernel dispatches it again.
func (t *Task) block() contMsg { return <-t.cont }

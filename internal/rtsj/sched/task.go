// Package sched implements a deterministic, priority-preemptive
// real-time scheduler over a virtual clock — the substitution for the
// RTSJ PriorityScheduler plus the RT-Preempt kernel of the paper's
// evaluation platform.
//
// Tasks execute as goroutines, but at most one task runs "on the CPU"
// at a time; every scheduling-relevant operation (consuming CPU time,
// waiting for the next period, firing a sporadic task, locking) is a
// syscall into the scheduler kernel, which advances the virtual clock
// between dispatches. CPU demand is modelled explicitly with
// TaskContext.Consume, during which higher-priority releases preempt
// the running task, exactly as a fixed-priority preemptive scheduler
// would.
package sched

import (
	"errors"
	"fmt"

	"soleil/internal/rtsj/clock"
)

// Priority is a fixed task priority. The range mirrors RTSJ's
// PriorityScheduler: regular Java priorities occupy 1..10 and the 28
// real-time priorities occupy 11..38. Higher values are more urgent.
type Priority int

// Priority ranges.
const (
	MinPriority        Priority = 1
	MaxRegularPriority Priority = 10
	MinRTPriority      Priority = 11
	MaxPriority        Priority = 38
)

// Valid reports whether p is inside the scheduler's priority range.
func (p Priority) Valid() bool { return p >= MinPriority && p <= MaxPriority }

// RealTime reports whether p is in the real-time band.
func (p Priority) RealTime() bool { return p >= MinRTPriority && p <= MaxPriority }

// ReleaseKind classifies a task's release parameters, mirroring RTSJ's
// PeriodicParameters, SporadicParameters and AperiodicParameters.
type ReleaseKind int

// Release kinds.
const (
	// Periodic tasks are released every Period, starting at Start.
	Periodic ReleaseKind = iota + 1
	// Sporadic tasks are released by Fire, with a minimum
	// interarrival time enforced by deferring early arrivals.
	Sporadic
	// Aperiodic tasks are released at Start, then by Fire with no
	// minimum interarrival time.
	Aperiodic
)

// String returns the ADL spelling of the kind.
func (k ReleaseKind) String() string {
	switch k {
	case Periodic:
		return "periodic"
	case Sporadic:
		return "sporadic"
	case Aperiodic:
		return "aperiodic"
	default:
		return fmt.Sprintf("ReleaseKind(%d)", int(k))
	}
}

// Release holds a task's release parameters.
type Release struct {
	Kind ReleaseKind
	// Start is the offset of the first release (Periodic, Aperiodic).
	Start clock.Duration
	// Period is the release period (Periodic only).
	Period clock.Duration
	// MinInterarrival is the minimum spacing between releases
	// (Sporadic only); early arrivals are deferred.
	MinInterarrival clock.Duration
	// Deadline is the relative deadline of each release; 0 means
	// "equal to Period" for periodic tasks and "unmonitored"
	// otherwise.
	Deadline clock.Duration
	// Cost is the per-release CPU budget, used by schedulability
	// analysis and cost-overrun accounting. It does not limit what
	// the task actually consumes.
	Cost clock.Duration
}

func (r Release) validate() error {
	switch r.Kind {
	case Periodic:
		if r.Period <= 0 {
			return fmt.Errorf("sched: periodic release needs a positive period, got %v", r.Period)
		}
	case Sporadic:
		if r.MinInterarrival < 0 {
			return fmt.Errorf("sched: negative minimum interarrival %v", r.MinInterarrival)
		}
	case Aperiodic:
	default:
		return fmt.Errorf("sched: unknown release kind %v", r.Kind)
	}
	if r.Start < 0 || r.Deadline < 0 || r.Cost < 0 {
		return fmt.Errorf("sched: release parameters must be non-negative: %+v", r)
	}
	return nil
}

// effectiveDeadline returns the monitored relative deadline, or 0 for
// unmonitored.
func (r Release) effectiveDeadline() clock.Duration {
	if r.Deadline > 0 {
		return r.Deadline
	}
	if r.Kind == Periodic {
		return r.Period
	}
	return 0
}

// MissInfo describes one deadline miss, passed to a task's miss
// handler.
type MissInfo struct {
	Task     string
	Release  clock.Time // absolute release time of the missed release
	Deadline clock.Time // absolute deadline that passed
	Now      clock.Time
}

// OverrunInfo describes one cost overrun (a release consuming more
// CPU than its declared budget), passed to a task's overrun handler.
type OverrunInfo struct {
	Task     string
	Release  clock.Time
	Budget   clock.Duration
	Consumed clock.Duration
	Now      clock.Time
}

// taskState tracks where a task is in its lifecycle.
type taskState int

const (
	stateNew         taskState = iota + 1 // goroutine not yet dispatched
	stateReady                            // released, runnable
	stateRunning                          // in real code (holds the CPU)
	stateWaiting                          // waiting for a scheduled release event
	stateWaitingFire                      // sporadic, waiting for an arrival
	stateSleeping                         // in Sleep
	stateBlocked                          // blocked on a mutex
	stateFinished                         // body returned
)

// Stats aggregates a task's observed behaviour over a simulation run.
type Stats struct {
	Releases    int64
	Completions int64
	Misses      int64
	// Overruns counts releases that exceeded their declared cost
	// budget.
	Overruns int64
	// Consumed is the total CPU time the task consumed.
	Consumed clock.Duration
	// MaxResponse / TotalResponse summarize release-to-completion
	// response times.
	MaxResponse   clock.Duration
	TotalResponse clock.Duration
	// MaxStartLatency is the worst observed release-to-first-dispatch
	// latency (release jitter).
	MaxStartLatency clock.Duration
}

// MeanResponse returns the mean response time over completed releases.
func (s Stats) MeanResponse() clock.Duration {
	if s.Completions == 0 {
		return 0
	}
	return s.TotalResponse / clock.Duration(s.Completions)
}

// Task is one schedulable entity.
type Task struct {
	name      string
	prio      Priority
	effPrio   Priority
	release   Release
	body      func(*TaskContext)
	onMiss    func(MissInfo)
	onOverrun func(OverrunInfo)

	sched *Scheduler
	tc    *TaskContext

	// kernel-owned state (only touched by the kernel goroutine, or
	// before Run starts)
	state          taskState
	remaining      clock.Duration // outstanding Consume demand
	cont           chan contMsg   // kernel -> task resume channel
	relSeq         int64          // releases so far
	completedSeq   int64          // last completed release
	currentRelease clock.Time
	dispatchedRel  int64 // last release whose first dispatch was recorded
	lastScheduled  clock.Time
	anyScheduled   bool         // whether lastScheduled is meaningful
	pendingFires   []clock.Time // deferred sporadic effective release times
	relConsumed    clock.Duration
	overrunFlagged bool
	blockedOn      *Mutex          //
	held           map[*Mutex]bool //
	enqueueSeq     int64           // FIFO tiebreak within a priority
	stats          Stats
}

type contMsg struct {
	stopped bool
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// Priority returns the task's base priority.
func (t *Task) Priority() Priority { return t.prio }

// Release returns the task's release parameters.
func (t *Task) Release() Release { return t.release }

// Stats returns a copy of the task's statistics. It is only safe to
// call when the scheduler is not running.
func (t *Task) Stats() Stats { return t.stats }

// ErrStopped is returned by blocking task operations when the
// scheduler shut down while the task was waiting.
var ErrStopped = errors.New("sched: scheduler stopped")

package sched

import (
	"errors"
	"fmt"

	"soleil/internal/rtsj/clock"
)

// errWouldBlock is the kernel's reply when a Lock request must park.
var errWouldBlock = errors.New("sched: would block")

// TaskContext is the handle a task body uses to interact with the
// scheduler. It is only valid inside the body of the task it was
// created for.
type TaskContext struct {
	t *Task
}

// Name returns the task's name.
func (tc *TaskContext) Name() string { return tc.t.name }

// Now returns the current virtual time.
func (tc *TaskContext) Now() clock.Time { return tc.t.sched.clk.Now() }

// ReleaseTime returns the nominal time of the task's current release.
func (tc *TaskContext) ReleaseTime() clock.Time { return tc.t.currentRelease }

// Consume models the task spending d of CPU time. The virtual clock
// advances while the task "computes"; a release of a higher-priority
// task preempts the computation, which resumes when the task is again
// the highest-priority ready task. Returns ErrStopped if the scheduler
// shuts down mid-computation.
func (tc *TaskContext) Consume(d clock.Duration) error {
	if d < 0 {
		return fmt.Errorf("sched: negative consume %v", d)
	}
	if d == 0 {
		return nil
	}
	tc.t.submit(&call{kind: callConsume, d: d})
	if tc.t.block().stopped {
		return ErrStopped
	}
	return nil
}

// Sleep suspends the task for d of virtual time.
func (tc *TaskContext) Sleep(d clock.Duration) error {
	if d < 0 {
		return fmt.Errorf("sched: negative sleep %v", d)
	}
	tc.t.submit(&call{kind: callSleep, d: d})
	if tc.t.block().stopped {
		return ErrStopped
	}
	return nil
}

// WaitForNextPeriod completes the current release and blocks until
// the task's next periodic release. It returns false when the task is
// not periodic or the scheduler stopped — the body should then return.
func (tc *TaskContext) WaitForNextPeriod() bool {
	if tc.t.release.Kind != Periodic {
		return false
	}
	tc.t.submit(&call{kind: callWFNP})
	return !tc.t.block().stopped
}

// WaitForRelease completes the current release and blocks until the
// task's next arrival (respecting a sporadic task's minimum
// interarrival time). It returns false for a periodic task or once
// the scheduler stopped.
func (tc *TaskContext) WaitForRelease() bool {
	if tc.t.release.Kind == Periodic {
		return false
	}
	tc.t.submit(&call{kind: callWaitRelease})
	return !tc.t.block().stopped
}

// Fire releases the sporadic or aperiodic task target. The arrival is
// timestamped now; arrivals closer together than a sporadic target's
// minimum interarrival time are deferred.
func (tc *TaskContext) Fire(target *Task) error {
	if target == nil {
		return fmt.Errorf("sched: fire of nil task")
	}
	if target.release.Kind == Periodic {
		return fmt.Errorf("sched: task %q is periodic; only sporadic and aperiodic tasks can be fired",
			target.name)
	}
	c := &call{kind: callFire, target: target, err: make(chan error, 1)}
	tc.t.submit(c)
	return <-c.err
}

// Yield gives up the CPU; the task stays ready and is re-dispatched
// after equal-priority peers queued before it.
func (tc *TaskContext) Yield() error {
	tc.t.submit(&call{kind: callYield})
	if tc.t.block().stopped {
		return ErrStopped
	}
	return nil
}

// Lock acquires m, blocking if it is held. While blocked, the task's
// priority is inherited by the owner (priority inheritance protocol).
func (tc *TaskContext) Lock(m *Mutex) error {
	if m == nil {
		return fmt.Errorf("sched: lock of nil mutex")
	}
	c := &call{kind: callLock, m: m, err: make(chan error, 1)}
	tc.t.submit(c)
	err := <-c.err
	if errors.Is(err, errWouldBlock) {
		if tc.t.block().stopped {
			return ErrStopped
		}
		return nil
	}
	return err
}

// Unlock releases m, waking its highest-priority waiter.
func (tc *TaskContext) Unlock(m *Mutex) error {
	if m == nil {
		return fmt.Errorf("sched: unlock of nil mutex")
	}
	c := &call{kind: callUnlock, m: m, err: make(chan error, 1)}
	tc.t.submit(c)
	return <-c.err
}

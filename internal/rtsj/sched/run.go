package sched

import (
	"fmt"

	"soleil/internal/rtsj/clock"
)

// Run executes the system until the virtual clock reaches the given
// horizon or every task has terminated. It returns after all task
// goroutines have exited. A scheduler can only run once.
func (s *Scheduler) Run(until clock.Duration) error {
	if s.ran {
		return fmt.Errorf("sched: scheduler already ran")
	}
	if until <= 0 {
		return fmt.Errorf("sched: run horizon must be positive, got %v", until)
	}
	s.ran = true
	horizon := clock.Time(until)

	for _, t := range s.tasks {
		switch t.release.Kind {
		case Periodic, Aperiodic:
			t.state = stateWaiting
			s.pushEvent(&event{
				time:    clock.Time(t.release.Start),
				kind:    evRelease,
				task:    t,
				nominal: clock.Time(t.release.Start),
			})
		case Sporadic:
			t.state = stateWaitingFire
		}
		s.wg.Add(1)
		go s.taskLoop(t)
	}

	var lastConsumer *Task
	for {
		if s.running != nil {
			s.handle(<-s.calls)
			continue
		}
		now := s.clk.Now()
		for ev := s.peekEvent(); ev != nil && ev.time <= now; ev = s.peekEvent() {
			s.fireEvent(s.popEvent())
		}
		next := s.pickReady()
		if next == nil {
			ev := s.peekEvent()
			if ev == nil || ev.time > horizon {
				break
			}
			s.idleTime += ev.time.Sub(now)
			if err := s.clk.AdvanceTo(ev.time); err != nil {
				return err
			}
			continue
		}
		if next.remaining > 0 {
			if lastConsumer != nil && lastConsumer != next && lastConsumer.remaining > 0 {
				s.preempted++
				s.emit(EventPreempt, lastConsumer, "by "+next.name)
			}
			lastConsumer = next
			sliceEnd := horizon
			if ev := s.peekEvent(); ev != nil && ev.time < sliceEnd {
				sliceEnd = ev.time
			}
			if sliceEnd <= now {
				// Time budget exhausted while work is pending.
				break
			}
			budgetEnd := now.Add(next.remaining)
			if budgetEnd <= sliceEnd {
				if err := s.clk.AdvanceTo(budgetEnd); err != nil {
					return err
				}
				s.chargeConsumption(next, next.remaining)
				next.remaining = 0
				s.dispatch(next)
			} else {
				slice := sliceEnd.Sub(now)
				if err := s.clk.AdvanceTo(sliceEnd); err != nil {
					return err
				}
				s.chargeConsumption(next, slice)
				next.remaining -= slice
			}
			continue
		}
		s.dispatch(next)
	}

	s.shutdown()
	s.wg.Wait()
	if s.clk.Now() < horizon {
		if err := s.clk.AdvanceTo(horizon); err != nil {
			return err
		}
	}
	return nil
}

// taskLoop is the goroutine wrapper around a task body.
func (s *Scheduler) taskLoop(t *Task) {
	defer s.wg.Done()
	msg := t.block() // first dispatch (first release)
	if !msg.stopped {
		t.tc = &TaskContext{t: t}
		t.body(t.tc)
	}
	t.submit(&call{kind: callExit})
}

// chargeConsumption accounts CPU time to a task and its current
// release, detecting cost overruns against the declared budget.
func (s *Scheduler) chargeConsumption(t *Task, d clock.Duration) {
	t.stats.Consumed += d
	t.relConsumed += d
	if budget := t.release.Cost; budget > 0 && !t.overrunFlagged && t.relConsumed > budget {
		t.overrunFlagged = true
		t.stats.Overruns++
		s.emit(EventOverrun, t, fmt.Sprintf("consumed %v of %v budget", t.relConsumed, budget))
		if t.onOverrun != nil {
			t.onOverrun(OverrunInfo{
				Task:     t.name,
				Release:  t.currentRelease,
				Budget:   budget,
				Consumed: t.relConsumed,
				Now:      s.clk.Now(),
			})
		}
	}
}

// dispatch hands the CPU to a ready task: it resumes the task's real
// code and records first-dispatch latency for a fresh release.
func (s *Scheduler) dispatch(t *Task) {
	if t.dispatchedRel < t.relSeq {
		lat := s.clk.Now().Sub(t.currentRelease)
		if lat > t.stats.MaxStartLatency {
			t.stats.MaxStartLatency = lat
		}
		t.dispatchedRel = t.relSeq
		s.emit(EventDispatch, t, "")
	}
	t.state = stateRunning
	s.running = t
	t.cont <- contMsg{}
}

// pickReady returns the ready task with the highest effective
// priority, FIFO within a priority level.
func (s *Scheduler) pickReady() *Task {
	var best *Task
	for _, t := range s.tasks {
		if t.state != stateReady {
			continue
		}
		if best == nil || t.effPrio > best.effPrio ||
			(t.effPrio == best.effPrio && t.enqueueSeq < best.enqueueSeq) {
			best = t
		}
	}
	return best
}

func (s *Scheduler) makeReady(t *Task) {
	t.state = stateReady
	t.enqueueSeq = s.enqueues
	s.enqueues++
}

// fireEvent applies a due event.
func (s *Scheduler) fireEvent(ev *event) {
	t := ev.task
	switch ev.kind {
	case evRelease:
		t.relSeq++
		t.currentRelease = ev.nominal
		t.stats.Releases++
		t.relConsumed = 0
		t.overrunFlagged = false
		s.emit(EventRelease, t, "")
		s.makeReady(t)
		if d := t.release.effectiveDeadline(); d > 0 {
			s.pushEvent(&event{
				time:       ev.nominal.Add(d),
				kind:       evDeadline,
				task:       t,
				rel:        t.relSeq,
				deadlineAt: ev.nominal.Add(d),
			})
		}
	case evWakeup:
		if t.state == stateSleeping {
			s.makeReady(t)
		}
	case evDeadline:
		if t.state == stateFinished {
			return
		}
		if t.completedSeq < ev.rel && t.relSeq >= ev.rel {
			t.stats.Misses++
			s.emit(EventMiss, t, fmt.Sprintf("deadline %v", ev.deadlineAt))
			if t.onMiss != nil {
				t.onMiss(MissInfo{
					Task:     t.name,
					Release:  t.currentRelease,
					Deadline: ev.deadlineAt,
					Now:      s.clk.Now(),
				})
			}
		}
	}
}

// complete records the completion of the task's current release.
func (s *Scheduler) complete(t *Task) {
	if t.relSeq <= t.completedSeq {
		return
	}
	resp := s.clk.Now().Sub(t.currentRelease)
	s.emit(EventComplete, t, fmt.Sprintf("response %v", resp))
	t.stats.Completions++
	t.stats.TotalResponse += resp
	if resp > t.stats.MaxResponse {
		t.stats.MaxResponse = resp
	}
	t.completedSeq = t.relSeq
}

// handle processes one syscall from the running task.
func (s *Scheduler) handle(c *call) {
	t := c.task
	now := s.clk.Now()
	switch c.kind {
	case callExit:
		s.complete(t)
		t.state = stateFinished
		s.finished++
		s.running = nil
	case callConsume:
		t.remaining = c.d
		s.makeReady(t)
		s.running = nil
	case callSleep:
		t.state = stateSleeping
		s.pushEvent(&event{time: now.Add(c.d), kind: evWakeup, task: t})
		s.running = nil
	case callYield:
		s.makeReady(t)
		s.running = nil
	case callWFNP:
		s.complete(t)
		nominal := clock.Time(t.release.Start) + clock.Time(t.relSeq)*clock.Time(t.release.Period)
		at := nominal
		if at < now {
			at = now
		}
		t.state = stateWaiting
		s.pushEvent(&event{time: at, kind: evRelease, task: t, nominal: nominal})
		s.running = nil
	case callWaitRelease:
		s.complete(t)
		if len(t.pendingFires) > 0 {
			eff := t.pendingFires[0]
			t.pendingFires = t.pendingFires[1:]
			at := eff
			if at < now {
				at = now
			}
			t.state = stateWaiting
			s.pushEvent(&event{time: at, kind: evRelease, task: t, nominal: eff})
		} else {
			t.state = stateWaitingFire
		}
		s.running = nil
	case callFire:
		s.fireArrival(c.target, now)
		c.err <- nil
	case callLock:
		s.lock(c)
	case callUnlock:
		c.err <- s.unlock(t, c.m)
	default:
		panic(fmt.Sprintf("sched: unknown syscall %d", c.kind))
	}
}

// fireArrival records an arrival at time now, deferring it per a
// sporadic task's minimum interarrival time. An arrival at a task not
// waiting for one (busy, or aperiodic before its start) is queued.
func (s *Scheduler) fireArrival(t *Task, now clock.Time) {
	eff := now
	if t.anyScheduled && t.release.Kind == Sporadic {
		if min := t.lastScheduled.Add(t.release.MinInterarrival); min > eff {
			eff = min
		}
	}
	t.lastScheduled = eff
	t.anyScheduled = true
	if t.state == stateWaitingFire {
		t.state = stateWaiting
		s.pushEvent(&event{time: eff, kind: evRelease, task: t, nominal: eff})
	} else {
		t.pendingFires = append(t.pendingFires, eff)
	}
}

// shutdown wakes every unfinished task with a stop signal and services
// their unwinding syscalls until all goroutines have exited.
func (s *Scheduler) shutdown() {
	s.stopping = true
	for _, t := range s.tasks {
		if t.state != stateFinished {
			t.cont <- contMsg{stopped: true}
		}
	}
	for s.finished < len(s.tasks) {
		c := <-s.calls
		switch c.kind {
		case callExit:
			c.task.state = stateFinished
			s.finished++
		case callFire:
			c.err <- nil
		case callUnlock:
			c.err <- s.unlock(c.task, c.m)
		case callLock:
			c.err <- ErrStopped
		default:
			// Yielding calls during unwinding resolve immediately as
			// stopped.
			c.task.cont <- contMsg{stopped: true}
		}
	}
}

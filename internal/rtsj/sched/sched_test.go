package sched

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"soleil/internal/rtsj/clock"
)

const ms = time.Millisecond

func periodicBody(work clock.Duration, count *int64) func(*TaskContext) {
	return func(tc *TaskContext) {
		for {
			atomic.AddInt64(count, 1)
			if err := tc.Consume(work); err != nil {
				return
			}
			if !tc.WaitForNextPeriod() {
				return
			}
		}
	}
}

func TestNewTaskValidation(t *testing.T) {
	s := New()
	body := func(*TaskContext) {}
	cases := []struct {
		name string
		cfg  TaskConfig
	}{
		{"no name", TaskConfig{Priority: 20, Release: Release{Kind: Aperiodic}, Body: body}},
		{"bad priority", TaskConfig{Name: "t", Priority: 99, Release: Release{Kind: Aperiodic}, Body: body}},
		{"no body", TaskConfig{Name: "t", Priority: 20, Release: Release{Kind: Aperiodic}}},
		{"periodic no period", TaskConfig{Name: "t", Priority: 20, Release: Release{Kind: Periodic}, Body: body}},
		{"negative start", TaskConfig{Name: "t", Priority: 20, Release: Release{Kind: Aperiodic, Start: -1}, Body: body}},
		{"unknown kind", TaskConfig{Name: "t", Priority: 20, Release: Release{}, Body: body}},
	}
	for _, c := range cases {
		if _, err := s.NewTask(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := s.NewTask(TaskConfig{Name: "ok", Priority: 20, Release: Release{Kind: Aperiodic}, Body: body}); err != nil {
		t.Fatalf("valid task refused: %v", err)
	}
	if _, err := s.NewTask(TaskConfig{Name: "ok", Priority: 20, Release: Release{Kind: Aperiodic}, Body: body}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestRunTwiceRefused(t *testing.T) {
	s := New()
	if err := s.Run(time.Millisecond); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := s.Run(time.Millisecond); err == nil {
		t.Fatal("second run accepted")
	}
	if err := New().Run(0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestPeriodicReleases(t *testing.T) {
	s := New()
	var n int64
	task, err := s.NewTask(TaskConfig{
		Name: "p", Priority: 20,
		Release: Release{Kind: Periodic, Period: 10 * ms},
		Body:    periodicBody(2*ms, &n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(99 * ms); err != nil {
		t.Fatal(err)
	}
	// Releases at 0,10,...,90.
	if n != 10 {
		t.Fatalf("iterations = %d, want 10", n)
	}
	st := task.Stats()
	if st.Releases != 10 || st.Completions != 10 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Consumed != 20*ms {
		t.Fatalf("consumed = %v", st.Consumed)
	}
	if st.MaxResponse != 2*ms {
		t.Fatalf("max response = %v", st.MaxResponse)
	}
	if st.MeanResponse() != 2*ms {
		t.Fatalf("mean response = %v", st.MeanResponse())
	}
	if st.MaxStartLatency != 0 {
		t.Fatalf("start latency = %v", st.MaxStartLatency)
	}
}

func TestPeriodicStartOffset(t *testing.T) {
	s := New()
	var n int64
	_, err := s.NewTask(TaskConfig{
		Name: "p", Priority: 20,
		Release: Release{Kind: Periodic, Start: 5 * ms, Period: 10 * ms},
		Body:    periodicBody(ms, &n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(50 * ms); err != nil {
		t.Fatal(err)
	}
	// Releases at 5,15,25,35,45.
	if n != 5 {
		t.Fatalf("iterations = %d, want 5", n)
	}
}

func TestPreemption(t *testing.T) {
	s := New()
	var lowDone clock.Time
	low, err := s.NewTask(TaskConfig{
		Name: "low", Priority: 12,
		Release: Release{Kind: Aperiodic},
		Body: func(tc *TaskContext) {
			if err := tc.Consume(50 * ms); err != nil {
				return
			}
			lowDone = tc.Now()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	high, err := s.NewTask(TaskConfig{
		Name: "high", Priority: 25,
		Release: Release{Kind: Periodic, Period: 10 * ms},
		Body:    periodicBody(ms, &n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(200 * ms); err != nil {
		t.Fatal(err)
	}
	if got := low.Stats().Consumed; got != 50*ms {
		t.Fatalf("low consumed = %v", got)
	}
	// low needs 50ms CPU; high steals 1ms per 10ms period: low
	// completes at 55ms or 56ms depending on the final interleaving.
	if lowDone < clock.Time(55*ms) || lowDone > clock.Time(57*ms) {
		t.Fatalf("low finished at %v", lowDone)
	}
	// high is never delayed: its response time stays at its own cost.
	if got := high.Stats().MaxResponse; got != ms {
		t.Fatalf("high max response = %v", got)
	}
	if s.Preemptions() == 0 {
		t.Fatal("no preemptions recorded")
	}
	if s.IdleTime() == 0 {
		t.Fatal("no idle time recorded over 200ms with 55ms of work")
	}
}

func TestSporadicFireAndMinInterarrival(t *testing.T) {
	s := New()
	var releases int64
	sp, err := s.NewTask(TaskConfig{
		Name: "sp", Priority: 15,
		Release: Release{Kind: Sporadic, MinInterarrival: 12 * ms},
		Body: func(tc *TaskContext) {
			for {
				atomic.AddInt64(&releases, 1)
				if err := tc.Consume(100 * time.Microsecond); err != nil {
					return
				}
				if !tc.WaitForRelease() {
					return
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.NewTask(TaskConfig{
		Name: "driver", Priority: 20,
		Release: Release{Kind: Periodic, Period: 5 * ms},
		Body: func(tc *TaskContext) {
			for {
				if err := tc.Fire(sp); err != nil {
					return
				}
				if !tc.WaitForNextPeriod() {
					return
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(50 * ms); err != nil {
		t.Fatal(err)
	}
	// Arrivals every 5ms are deferred to effective releases at
	// 0,12,24,36,48.
	if releases != 5 {
		t.Fatalf("sporadic releases = %d, want 5", releases)
	}
	if got := sp.Stats().Releases; got != 5 {
		t.Fatalf("stats releases = %d", got)
	}
}

func TestFireValidation(t *testing.T) {
	s := New()
	var per *Task
	per, err := s.NewTask(TaskConfig{
		Name: "p", Priority: 20,
		Release: Release{Kind: Periodic, Period: 10 * ms},
		Body: func(tc *TaskContext) {
			if err := tc.Fire(per); err == nil {
				t.Error("firing a periodic task accepted")
			}
			if err := tc.Fire(nil); err == nil {
				t.Error("firing nil accepted")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5 * ms); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineMiss(t *testing.T) {
	s := New()
	var misses []MissInfo
	task, err := s.NewTask(TaskConfig{
		Name: "over", Priority: 20,
		Release: Release{Kind: Periodic, Period: 10 * ms, Deadline: 5 * ms},
		Body: func(tc *TaskContext) {
			for {
				if err := tc.Consume(7 * ms); err != nil {
					return
				}
				if !tc.WaitForNextPeriod() {
					return
				}
			}
		},
		OnMiss: func(mi MissInfo) { misses = append(misses, mi) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(35 * ms); err != nil {
		t.Fatal(err)
	}
	st := task.Stats()
	if st.Misses == 0 {
		t.Fatal("no deadline misses recorded for a 7ms job with 5ms deadline")
	}
	if int64(len(misses)) != st.Misses {
		t.Fatalf("handler saw %d misses, stats %d", len(misses), st.Misses)
	}
	if misses[0].Task != "over" || misses[0].Deadline != clock.Time(5*ms) {
		t.Fatalf("first miss = %+v", misses[0])
	}
}

func TestDeadlineMetNoMiss(t *testing.T) {
	s := New()
	task, err := s.NewTask(TaskConfig{
		Name: "ok", Priority: 20,
		Release: Release{Kind: Periodic, Period: 10 * ms, Deadline: 5 * ms},
		Body: func(tc *TaskContext) {
			for {
				if err := tc.Consume(2 * ms); err != nil {
					return
				}
				if !tc.WaitForNextPeriod() {
					return
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(55 * ms); err != nil {
		t.Fatal(err)
	}
	if got := task.Stats().Misses; got != 0 {
		t.Fatalf("misses = %d", got)
	}
}

func TestSleep(t *testing.T) {
	s := New()
	var woke clock.Time
	_, err := s.NewTask(TaskConfig{
		Name: "z", Priority: 20,
		Release: Release{Kind: Aperiodic, Start: ms},
		Body: func(tc *TaskContext) {
			if err := tc.Sleep(7 * ms); err != nil {
				return
			}
			woke = tc.Now()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(20 * ms); err != nil {
		t.Fatal(err)
	}
	if woke != clock.Time(8*ms) {
		t.Fatalf("woke at %v, want 8ms", woke)
	}
}

func TestPriorityInheritance(t *testing.T) {
	s := New()
	m := s.NewMutex("m")
	_, err := s.NewTask(TaskConfig{
		Name: "L", Priority: 12,
		Release: Release{Kind: Aperiodic},
		Body: func(tc *TaskContext) {
			if err := tc.Lock(m); err != nil {
				return
			}
			if err := tc.Consume(10 * ms); err != nil {
				return
			}
			if err := tc.Unlock(m); err != nil {
				t.Errorf("L unlock: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.NewTask(TaskConfig{
		Name: "M", Priority: 15,
		Release: Release{Kind: Aperiodic, Start: ms},
		Body: func(tc *TaskContext) {
			_ = tc.Consume(20 * ms)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.NewTask(TaskConfig{
		Name: "H", Priority: 20,
		Release: Release{Kind: Aperiodic, Start: 2 * ms},
		Body: func(tc *TaskContext) {
			if err := tc.Lock(m); err != nil {
				return
			}
			if err := tc.Consume(ms); err != nil {
				return
			}
			if err := tc.Unlock(m); err != nil {
				t.Errorf("H unlock: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100 * ms); err != nil {
		t.Fatal(err)
	}
	// With priority inheritance H waits only for L's remaining
	// critical section (9ms) plus its own 1ms: response ~10ms. Without
	// it, M's 20ms would interpose (response ~30ms).
	if got := high.Stats().MaxResponse; got > 12*ms {
		t.Fatalf("H response %v suggests priority inversion (no inheritance)", got)
	}
	if got := high.Stats().MaxResponse; got < 9*ms {
		t.Fatalf("H response %v implausibly small", got)
	}
}

func TestMutexErrors(t *testing.T) {
	s := New()
	m := s.NewMutex("m")
	if m.Name() != "m" {
		t.Fatal("name")
	}
	_, err := s.NewTask(TaskConfig{
		Name: "t", Priority: 20,
		Release: Release{Kind: Aperiodic},
		Body: func(tc *TaskContext) {
			if err := tc.Unlock(m); err == nil {
				t.Error("unlock of unheld mutex accepted")
			}
			if err := tc.Lock(m); err != nil {
				t.Errorf("lock: %v", err)
			}
			if err := tc.Lock(m); err == nil {
				t.Error("recursive lock accepted")
			}
			if err := tc.Unlock(m); err != nil {
				t.Errorf("unlock: %v", err)
			}
			if err := tc.Lock(nil); err == nil {
				t.Error("nil lock accepted")
			}
			if err := tc.Unlock(nil); err == nil {
				t.Error("nil unlock accepted")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10 * ms); err != nil {
		t.Fatal(err)
	}
}

func TestYieldRoundRobin(t *testing.T) {
	s := New()
	var order []string
	mk := func(name string) {
		_, err := s.NewTask(TaskConfig{
			Name: name, Priority: 20,
			Release: Release{Kind: Aperiodic},
			Body: func(tc *TaskContext) {
				for i := 0; i < 3; i++ {
					order = append(order, name)
					if err := tc.Yield(); err != nil {
						return
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mk("a")
	mk("b")
	if err := s.Run(10 * ms); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStartLatencyOfLowerPriorityTask(t *testing.T) {
	s := New()
	var n1, n2 int64
	_, err := s.NewTask(TaskConfig{
		Name: "high", Priority: 30,
		Release: Release{Kind: Periodic, Period: 10 * ms},
		Body:    periodicBody(ms, &n1),
	})
	if err != nil {
		t.Fatal(err)
	}
	low, err := s.NewTask(TaskConfig{
		Name: "low", Priority: 20,
		Release: Release{Kind: Periodic, Period: 10 * ms},
		Body:    periodicBody(ms, &n2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(95 * ms); err != nil {
		t.Fatal(err)
	}
	if got := low.Stats().MaxStartLatency; got != ms {
		t.Fatalf("low start latency = %v, want 1ms", got)
	}
	if got := low.Stats().MaxResponse; got != 2*ms {
		t.Fatalf("low response = %v, want 2ms", got)
	}
}

func TestStopWakesBlockedTasks(t *testing.T) {
	s := New()
	var stopped bool
	_, err := s.NewTask(TaskConfig{
		Name: "sp", Priority: 15,
		Release: Release{Kind: Sporadic},
		Body: func(tc *TaskContext) {
			// First release happens only if fired — it never is, so
			// the body only runs on shutdown... it does not run at all.
			stopped = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(10 * ms) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not terminate with an unfired sporadic task")
	}
	if stopped {
		t.Fatal("unfired sporadic body ran")
	}
}

func TestConsumeSleepValidation(t *testing.T) {
	s := New()
	_, err := s.NewTask(TaskConfig{
		Name: "t", Priority: 20,
		Release: Release{Kind: Aperiodic},
		Body: func(tc *TaskContext) {
			if err := tc.Consume(-1); err == nil {
				t.Error("negative consume accepted")
			}
			if err := tc.Consume(0); err != nil {
				t.Errorf("zero consume: %v", err)
			}
			if err := tc.Sleep(-1); err == nil {
				t.Error("negative sleep accepted")
			}
			if tc.Name() != "t" {
				t.Error("name")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(ms); err != nil {
		t.Fatal(err)
	}
}

func TestWaitMismatchedKind(t *testing.T) {
	s := New()
	_, err := s.NewTask(TaskConfig{
		Name: "a", Priority: 20,
		Release: Release{Kind: Aperiodic},
		Body: func(tc *TaskContext) {
			if tc.WaitForNextPeriod() {
				t.Error("WFNP true for aperiodic")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.NewTask(TaskConfig{
		Name: "p", Priority: 20,
		Release: Release{Kind: Periodic, Period: 10 * ms},
		Body: func(tc *TaskContext) {
			if tc.WaitForRelease() {
				t.Error("WaitForRelease true for periodic")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(ms); err != nil {
		t.Fatal(err)
	}
}

// TestFireAperiodic covers firing an aperiodic task: each arrival
// after its start release releases it, with no minimum interarrival
// time, and an arrival before its start release is queued behind it.
// (TestFireValidation checks that a periodic task is still refused.)
func TestFireAperiodic(t *testing.T) {
	// run fires the aperiodic task "ap" (start release at 5ms) at the
	// given offsets from a higher-priority periodic driver, and returns
	// the nominal times of ap's releases.
	run := func(t *testing.T, fireAt ...clock.Duration) []clock.Time {
		t.Helper()
		s := New()
		var releases []clock.Time
		ap, err := s.NewTask(TaskConfig{
			Name: "ap", Priority: 15,
			Release: Release{Kind: Aperiodic, Start: 5 * ms},
			Body: func(tc *TaskContext) {
				for {
					releases = append(releases, tc.ReleaseTime())
					if !tc.WaitForRelease() {
						return
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.NewTask(TaskConfig{
			Name: "driver", Priority: 20,
			Release: Release{Kind: Periodic, Period: ms},
			Body: func(tc *TaskContext) {
				for {
					for _, at := range fireAt {
						if tc.Now() == clock.Time(at) {
							if err := tc.Fire(ap); err != nil {
								t.Errorf("fire at %v: %v", at, err)
							}
						}
					}
					if !tc.WaitForNextPeriod() {
						return
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(20 * ms); err != nil {
			t.Fatal(err)
		}
		return releases
	}

	t.Run("after start release", func(t *testing.T) {
		got := run(t, 8*ms, 9*ms, 12*ms)
		want := []clock.Time{clock.Time(5 * ms), clock.Time(8 * ms), clock.Time(9 * ms), clock.Time(12 * ms)}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("releases at %v, want %v", got, want)
		}
	})

	t.Run("before start release", func(t *testing.T) {
		got := run(t, 2*ms)
		want := []clock.Time{clock.Time(5 * ms), clock.Time(2 * ms)}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("releases at %v, want the start release then the queued arrival %v", got, want)
		}
	})
}

func TestPriorityPredicates(t *testing.T) {
	if !Priority(30).RealTime() || Priority(5).RealTime() {
		t.Fatal("RealTime band wrong")
	}
	if Priority(0).Valid() || Priority(39).Valid() || !Priority(1).Valid() {
		t.Fatal("Valid range wrong")
	}
	if Periodic.String() != "periodic" || Sporadic.String() != "sporadic" || Aperiodic.String() != "aperiodic" {
		t.Fatal("kind strings")
	}
}

// Property: for random (period, cost, horizon) with cost < period and a
// single task, releases and completions match the analytic count and
// there are no misses.
func TestPeriodicScheduleProperty(t *testing.T) {
	f := func(p8, c8, h8 uint8) bool {
		period := clock.Duration(int(p8%20)+2) * ms
		cost := clock.Duration(int(c8)%max(1, int(period/ms))) * ms / 2
		horizon := clock.Duration(int(h8%10)+1) * 10 * ms
		s := New()
		var n int64
		task, err := s.NewTask(TaskConfig{
			Name: "p", Priority: 20,
			Release: Release{Kind: Periodic, Period: period},
			Body:    periodicBody(cost, &n),
		})
		if err != nil {
			return false
		}
		if err := s.Run(horizon); err != nil {
			return false
		}
		// Releases at 0, period, 2*period, ... <= horizon.
		want := int64(horizon/period) + 1
		st := task.Stats()
		if st.Releases != want || st.Misses != 0 {
			return false
		}
		return st.Completions == want || st.Completions == want-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: with N independent periodic tasks at distinct priorities
// and total utilization < 1, the highest-priority task's response time
// always equals its own cost.
func TestHighestPriorityIsolationProperty(t *testing.T) {
	f := func(n8 uint8) bool {
		n := int(n8%4) + 2
		s := New()
		var counts = make([]int64, n)
		var tasks []*Task
		for i := 0; i < n; i++ {
			task, err := s.NewTask(TaskConfig{
				Name:     string(rune('a' + i)),
				Priority: Priority(30 - i),
				Release:  Release{Kind: Periodic, Period: clock.Duration(10+5*i) * ms},
				Body:     periodicBody(ms, &counts[i]),
			})
			if err != nil {
				return false
			}
			tasks = append(tasks, task)
		}
		if err := s.Run(200 * ms); err != nil {
			return false
		}
		return tasks[0].Stats().MaxResponse == ms
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

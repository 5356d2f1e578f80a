package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/load"
	"soleil/internal/rtsj/thread"
)

// injectors is the injector goroutine count: at most two, and never
// more than the host has processors.
var injectors = min(2, runtime.NumCPU())

// drainMax bounds the wait for in-flight arrivals after the schedule;
// drainQuiet ends it early once nothing moves.
const (
	drainMax   = 5 * time.Second
	drainQuiet = 100 * time.Millisecond
)

// driveSpec is one open-loop drive: arrivals at rate, constant or in
// volleys of burst sharing one due instant, over warmup + window, the
// whole schedule shifted by phase (a share of one gap).
type driveSpec struct {
	rate           float64
	burst          int
	phase          float64
	warmup, window time.Duration
}

// schedule returns the due offset of every arrival. It is fixed before
// the drive and never consults completions: that is what makes the
// drive open loop.
func (d driveSpec) schedule() []int64 {
	total := int(d.rate * (d.warmup + d.window).Seconds())
	offs := make([]int64, 0, total)
	volley := max(d.burst, 1)
	gap := float64(volley) / d.rate * float64(time.Second)
	for v := 0; len(offs) < total; v++ {
		for i := 0; i < volley && len(offs) < total; i++ {
			offs = append(offs, int64((float64(v)+d.phase)*gap))
		}
	}
	return offs
}

// driveResult is one drive's account.
type driveResult struct {
	// led is the drive's ledger, for the traced run's analysis.
	led      *ledger
	arrivals int64
	rate     float64
	// latencies (ms, sorted) of the completed arrivals due in the
	// measured window; lateness (µs, sorted) of the injections there.
	latencies, lateness []float64
	window              time.Duration
	completedInWindow   int64
	goodputWindow       time.Duration
	lost                int64 // buffer overflow + inject errors + unaccounted
	shed                int64
	cpu                 time.Duration
	allocBytes          uint64
	gcCycles            uint32
	gcPause             time.Duration
	depthFirst          float64 // mean summed depth, first quarter of the window
	depthLast           float64 // and last quarter
	depthMax            int     // highest per-queue high watermark
	queueDropped        int64
	gates               []gateStat
	drops               []string // per client binding, where any
	setup               time.Duration
	reconnects          int64
}

func (r *driveResult) p(q float64) float64 { return quantile(r.latencies, q) }

// goodput is completions per second of the measured window.
func (r *driveResult) goodput() float64 {
	return float64(r.completedInWindow) / r.goodputWindow.Seconds()
}

// late is the injector's lateness q-quantile in the measured window,
// µs.
func (r *driveResult) late(q float64) float64 { return quantile(r.lateness, q) }

// lostRatio is the unexplained loss over every arrival of the drive.
func (r *driveResult) lostRatio() float64 { return float64(r.lost) / float64(r.arrivals) }

// backlogGrowth is the share of the offered rate by which the summed
// depth may rise, between the first and last quarter of the window,
// before the backlog counts as growing: the system then falls behind
// its input, which scheduling noise alone does not do.
const backlogGrowth = 0.02

// backlogGrows reports a summed depth rising faster than backlogGrowth
// of the offered rate. The quarters' midpoints are 3/4 of the window
// apart.
func (r *driveResult) backlogGrows() bool {
	slope := (r.depthLast - r.depthFirst) / (0.75 * r.window.Seconds())
	return slope > backlogGrowth*r.rate
}

// drive deploys a fresh system, runs one open-loop drive against it,
// checks the ledger and tears the system down. Failed checks go to
// out; an error means the drive could not run at all.
func drive(scn *load.Scenario, spec driveSpec, tr *tracer, out *report) (*driveResult, error) {
	offs := spec.schedule()
	if len(offs) == 0 {
		return nil, fmt.Errorf("empty schedule at %.0f/s", spec.rate)
	}
	// Every drive starts from a collected heap: the garbage of the
	// previous one must not charge its collection to this one.
	runtime.GC()
	led := newLedger(make([]int64, len(offs)))
	if tr != nil {
		tr.reset(int64(len(offs)))
	}
	s, err := deploy(scn, led, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res, err := driveSUT(s, led, offs, spec)
	if err != nil {
		return nil, err
	}
	checkLedger(scn, s, led, res, out)
	return res, nil
}

func driveSUT(s *sut, led *ledger, offs []int64, spec driveSpec) (*driveResult, error) {
	n := len(offs)
	type injEnv struct {
		env   *thread.Env
		close func()
	}
	envs := make([][]injEnv, injectors)
	defer func() {
		for _, row := range envs {
			for _, e := range row {
				e.close()
			}
		}
	}()
	sysIdx := make(map[*assembly.System]int)
	for g := range envs {
		for _, t := range s.targets {
			if _, ok := sysIdx[t.sys]; !ok {
				sysIdx[t.sys] = len(sysIdx)
			}
		}
		envs[g] = make([]injEnv, len(sysIdx))
		for _, t := range s.targets {
			i := sysIdx[t.sys]
			if envs[g][i].env != nil {
				continue
			}
			env, closeEnv, err := t.sys.NewEnv(false)
			if err != nil {
				return nil, fmt.Errorf("injector env: %w", err)
			}
			envs[g][i] = injEnv{env, closeEnv}
		}
	}

	res := &driveResult{led: led, arrivals: int64(n), rate: spec.rate, window: spec.window, setup: s.setup}
	start := now() + int64(10*time.Millisecond)
	for i, off := range offs {
		led.intended[i] = start + off
	}
	warmupEnd := start + int64(spec.warmup)
	schedEnd := start + int64(spec.warmup+spec.window)

	// The depth sampler watches the backlog over the measured window.
	var (
		samplerWG sync.WaitGroup
		depths    []int
	)
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for t := now(); t < schedEnd; t = now() {
			if t >= warmupEnd {
				depths = append(depths, s.depth())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	cpu0, mem0 := cpuTime(), memStats()
	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += injectors {
				due := led.intended[i]
				if d := due - now(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				at := now()
				led.lateness[i] = at - due
				t := s.targets[i%len(s.targets)]
				if _, err := t.node.Invoke(envs[g][sysIdx[t.sys]].env, "in", "put", int64(i)); err != nil {
					led.resolve(int64(i), stInjectErr)
				}
			}
		}()
	}
	wg.Wait()
	samplerWG.Wait()

	// Drain: until every arrival has an outcome, or neither the ledger
	// nor the queues have moved for drainQuiet, or the bound. What is
	// still pending then is checked against the queues.
	drainStart := time.Now()
	lastPending, lastDepth, still := int64(-1), -1, time.Now()
	for time.Since(drainStart) < drainMax {
		pending, depth := int64(n)-led.resolved(), s.depth()
		if pending == 0 {
			break
		}
		if pending != lastPending || depth != lastDepth {
			lastPending, lastDepth, still = pending, depth, time.Now()
		} else if time.Since(still) > drainQuiet {
			break
		}
		time.Sleep(time.Millisecond)
	}
	res.cpu = cpuTime() - cpu0
	mem1 := memStats()
	res.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
	res.gcCycles = mem1.NumGC - mem0.NumGC
	res.gcPause = time.Duration(mem1.PauseTotalNs - mem0.PauseTotalNs)
	s.close()

	q := len(depths) / 4
	if q > 0 {
		res.depthFirst, res.depthLast = meanInts(depths[:q]), meanInts(depths[len(depths)-q:])
	}
	lastDone := warmupEnd
	for i := 0; i < n; i++ {
		if led.intended[i] < warmupEnd {
			continue
		}
		res.lateness = append(res.lateness, float64(led.lateness[i])/1e3)
		if led.state[i].Load() == stCompleted {
			res.latencies = append(res.latencies, float64(led.latency[i])/1e6)
			lastDone = max(lastDone, led.intended[i]+led.latency[i])
		}
	}
	sort.Float64s(res.latencies)
	sort.Float64s(res.lateness)
	res.completedInWindow = int64(len(res.latencies))
	// Goodput's window runs from the first due instant measured to the
	// last completion of an arrival due in it.
	res.goodputWindow = time.Duration(lastDone - warmupEnd)
	res.shed = led.shed.Load()
	return res, nil
}

// checkLedger checks conservation and the contracts after a drive,
// with every pacer stopped, and fills the lost count.
func checkLedger(scn *load.Scenario, s *sut, led *ledger, res *driveResult, out *report) {
	n := res.arrivals
	var byState [stInjectErr + 1]int64
	for i := range led.state {
		byState[led.state[i].Load()]++
	}
	inFlight := int64(s.depth())
	pending := byState[stPending]
	res.lost = led.overflow.Load() + led.injectErr.Load()
	if pending > inFlight {
		res.lost += pending - inFlight
	}
	tag := fmt.Sprintf("%s at %.0f/s", scn.Spec.Shape, res.rate)
	if got := led.completed.Load() + led.shed.Load() + led.overflow.Load() + led.injectErr.Load() + inFlight; got != n {
		out.failf("%s: conservation: injected %d != completed %d + shed %d + overflow %d + inject errors %d + in flight %d",
			tag, n, led.completed.Load(), led.shed.Load(), led.overflow.Load(), led.injectErr.Load(), inFlight)
	}
	if pending != inFlight {
		out.failf("%s: %d arrivals without outcome but %d queued", tag, pending, inFlight)
	}
	if byState[stCompleted] != led.completed.Load() || byState[stShed] != led.shed.Load() ||
		byState[stOverflow] != led.overflow.Load() || byState[stInjectErr] != led.injectErr.Load() {
		out.failf("%s: ledger counters disagree with per-arrival outcomes", tag)
	}
	if d := led.duplicate.Load(); d > 0 {
		out.failf("%s: %d arrivals completed or dropped twice", tag, d)
	}
	if f := led.foreign.Load(); f > 0 {
		out.failf("%s: %d payloads were not arrival ids", tag, f)
	}

	var shedByBinding, overflowByBinding int64
	for name, b := range led.bindings {
		shedByBinding += b.shed.Load()
		overflowByBinding += b.overflow.Load()
		if b.shed.Load()+b.overflow.Load() > 0 {
			res.drops = append(res.drops, fmt.Sprintf("%s: shed %d, overflow %d", name, b.shed.Load(), b.overflow.Load()))
		}
	}
	sort.Strings(res.drops)
	if shedByBinding != led.shed.Load() || overflowByBinding != led.overflow.Load() {
		out.failf("%s: per-binding drops (%d shed, %d overflow) disagree with the ledger (%d, %d)",
			tag, shedByBinding, overflowByBinding, led.shed.Load(), led.overflow.Load())
	}
	for _, qs := range s.queueStats() {
		res.queueDropped += qs.Dropped
		res.depthMax = max(res.depthMax, qs.HighWatermark)
	}
	if res.queueDropped != led.overflow.Load() {
		out.failf("%s: queues report %d dropped, the ledger %d overflowed", tag, res.queueDropped, led.overflow.Load())
	}

	res.gates = s.gates(scn)
	elapsed := time.Since(s.born).Seconds()
	var gateShed int64
	for _, g := range res.gates {
		gateShed += g.shed
		if limit := g.rate*elapsed + float64(g.burst); float64(g.admitted) > limit {
			out.failf("%s: gate %s admitted %d, above its contract %.0f/s x %.3fs + burst %d",
				tag, g.name, g.admitted, g.rate, elapsed, g.burst)
		}
	}
	if gateShed != led.shed.Load() {
		out.failf("%s: gates report %d shed, the ledger %d", tag, gateShed, led.shed.Load())
	}
	res.reconnects = s.reconnects()
}

// cpuTime is the process CPU time (user + system).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

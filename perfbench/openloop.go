package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"soleil/internal/load"
)

// openLoop is a workload driven by the benchmark's open-loop injector
// at a fixed rate below the knee; with -search, the sustainable-rate
// search follows.
type openLoop struct {
	name string
	spec load.Spec
	// rate and burst shape the fixed-rate phase (burst 0: constant
	// arrivals).
	rate  float64
	burst int
	// p99Limit is the latency limit a search probe must meet.
	p99Limit time.Duration
	// searchFrom is the -search run's first probe rate.
	searchFrom float64
}

var (
	pipelineWorkload = openLoop{
		name: "pipeline", spec: load.Spec{Shape: load.Pipeline, Components: 24},
		rate: 2000, p99Limit: 50 * time.Millisecond, searchFrom: 4000,
	}
	sporadicWorkload = openLoop{
		name: "sporadic-burst", spec: load.Spec{Shape: load.Sporadic, Components: 24},
		rate: 40000, burst: 32, p99Limit: 50 * time.Millisecond, searchFrom: 400000,
	}
	pipeline3NodeWorkload = openLoop{
		name: "pipeline-3node", spec: load.Spec{Shape: load.Pipeline, Components: 24, Nodes: 3},
		rate: 2000, p99Limit: 50 * time.Millisecond, searchFrom: 1000,
	}
)

// Run shape: the fixed-rate phase is fixedWindows drives of
// fixedShare of the budget each, each followed by one of fixedWindows
// slices of the Fig. 7 pass, which gets fig7Share in all. Every drive
// deploys a fresh system, and a deployment's pacer tickers start in a
// random phase relation that moves its latency, so the fixed-rate
// figures are medians over several deployments.
const (
	fixedWindows = 24
	fixedShare   = 0.025
	fig7Share    = 0.1
	// setupReps extra deployments follow each window, timed only, so
	// setup_s is a median over fixedWindows*(setupReps+1) set-ups.
	setupReps = 1
	warmup    = 200 * time.Millisecond
	// latenessLimit discards a measured drive whose injector ran this
	// late at p99: the generator, stalled by the host, would then set
	// the latency (below the knee the injector runs about 1-2 ms late
	// at p99 on a 2-core host). Such drives are driven again while the
	// discarded ones have taken less than redriveShare of the budget;
	// past that the run is reported invalid.
	latenessLimit = 5 * time.Millisecond
	redriveShare  = 0.5
)

// The -search run's probes: each measures probeShare of the budget
// after probeWarmup. maxGrow doublings, then bisections runs of
// bisectSteps geometric bisections over a 4x bracket (4^(1/32), about
// 4.4% resolution). stallP90 is the injector's lateness p90 below
// which a late probe counts as stalled rather than saturated (see
// searchRate).
const (
	probeShare  = 0.02
	probeWarmup = 150 * time.Millisecond
	stallP90    = time.Millisecond
	maxGrow     = 7
	bisectSteps = 5
	bisections  = 6
)

func (w openLoop) fixedSpec(rc runConfig) driveSpec {
	return driveSpec{rate: w.rate, burst: w.burst, phase: seedPhase(rc.seed), warmup: warmup,
		window: max(rc.budget(fixedShare), 200*time.Millisecond)}
}

// scenarioSeed fixes each workload's architecture. The sporadic shape
// draws its workers' minimum interarrival times from the synthesis
// seed, which moves its latency several-fold; the workload is one
// scenario, so runs on different benchmark seeds stay comparable.
const scenarioSeed = 1

func synthesize(w openLoop) (*load.Scenario, error) {
	spec := w.spec
	spec.Seed = scenarioSeed
	return load.Synthesize(spec)
}

// seedPhase is the run's arrival phase: the benchmark seed shifts every
// schedule by this share of one inter-arrival gap.
func seedPhase(seed int64) float64 { return rand.New(rand.NewSource(seed)).Float64() }

// runOpenLoop is the untraced run of an open-loop workload. The
// fixed-rate windows alternate with the slices of the Fig. 7 pass, so
// that a noisy spell of a shared host touches a few samples of each
// kind rather than all of one.
func runOpenLoop(rc runConfig, w openLoop, out *report) error {
	scn, err := synthesize(w)
	if err != nil {
		return err
	}
	if rc.trace {
		return runOpenLoopTraced(rc, w, scn, out)
	}
	f7, err := newFig7Pass(rc.seed, rc.budget(fig7Share))
	if err != nil {
		return err
	}
	defer f7.close()

	var p50, p90, p99, goodput, cpu, alloc, setups []float64
	samples, rd := 0, rc.redrive()
	for i := 0; i < fixedWindows; i++ {
		res, err := measuredDrive(scn, w.fixedSpec(rc), nil, out, rd)
		if err != nil {
			return err
		}
		out.count(res.arrivals, res.lost)
		samples += len(res.latencies)
		p50 = append(p50, res.p(0.50))
		p90 = append(p90, res.p(0.90))
		p99 = append(p99, res.p(0.99))
		goodput = append(goodput, res.goodput())
		cpu = append(cpu, float64(res.cpu.Microseconds())/float64(res.arrivals))
		alloc = append(alloc, float64(res.allocBytes)/float64(res.arrivals))
		setups = append(setups, res.setup.Seconds())
		out.notef("fixed %.0f/s window %d: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (%d samples), lost %d/%d, shed %d",
			w.rate, i, res.p(0.5), res.p(0.9), res.p(0.99), len(res.latencies), res.lost, res.arrivals, res.shed)
		for k := 0; k < setupReps; k++ {
			runtime.GC()
			s, err := deploy(scn, newLedger(nil), nil)
			if err != nil {
				return err
			}
			s.close()
			setups = append(setups, s.setup.Seconds())
		}
		if err := f7.run(rc.budget(fig7Share) / fixedWindows); err != nil {
			return err
		}
	}
	// Each deployment's pacer phases move its latency: the median over
	// the windows keeps one such deployment, or one stalled window, from
	// setting the run's figure. The tails are reported, not gated: on a
	// shared 2-core host, minutes of steal move them between runs by
	// more than any bound.
	out.notef("latency percentiles are medians over %d windows, %d samples in all; p90 %.3f ms, p99 %.3f ms",
		fixedWindows, samples, median(p90), median(p99))

	out.set("setup_s", median(setups))
	out.set("latency_p50_ms", median(p50))
	out.set("goodput_msgs_s", median(goodput))
	out.set("cpu_us_per_msg", median(cpu))
	out.set("alloc_bytes_per_msg", median(alloc))
	fig7Metrics(f7.finish(out), out, false)
	if rc.search {
		return searchRate(rc, w, scn, out)
	}
	return nil
}

// redrive is a run's time left for driving late drives again.
type redrive struct{ left time.Duration }

func (rc runConfig) redrive() *redrive { return &redrive{left: rc.budget(redriveShare)} }

// measuredDrive is a drive whose figures are kept: one whose injector
// ran later than latenessLimit at p99 measured the generator, not the
// system, so it is discarded and driven again. Once the run's time for
// that is spent, the drive is kept and the run is reported invalid:
// the injector's lateness is a fault of the harness or the host, not
// an output of the program, so it does not make the run incorrect. The
// ledger checks of a discarded drive still count.
func measuredDrive(scn *load.Scenario, spec driveSpec, tr *tracer, out *report, rd *redrive) (*driveResult, error) {
	for {
		t0 := time.Now()
		res, err := drive(scn, spec, tr, out)
		if err != nil {
			return nil, err
		}
		p := res.late(0.99)
		if p <= float64(latenessLimit.Microseconds()) {
			return res, nil
		}
		if rd.left <= 0 {
			out.invalidf("injector lateness p99 %.0f µs exceeds the %v limit; the run's time for driving again is spent", p, latenessLimit)
			return res, nil
		}
		rd.left -= time.Since(t0)
		out.notef("drive discarded: injector lateness p99 %.0f µs exceeds the %v limit", p, latenessLimit)
	}
}

// probe is one search step.
type probe struct {
	rate     float64
	pass     bool
	p99      float64 // ms
	samples  int
	lost     float64
	grows    bool
	lateness float64 // p99, µs
	late90   float64 // p90, µs
}

func (p probe) String() string {
	return fmt.Sprintf("%.0f/s: p99 %.3f ms (%d samples), lost ratio %.4f, backlog growing %v, lateness p99 %.0f µs, p90 %.0f µs",
		p.rate, p.p99, p.samples, p.lost, p.grows, p.lateness, p.late90)
}

// searchRate finds the highest offered rate whose probe keeps p99
// under the workload's limit, loses nothing unexplained and holds the
// backlog steady, and reports it in the run's notes. It doubles from
// searchFrom until a probe fails, then bisects geometrically; every
// probe deploys a fresh system, and its ledger is checked like any
// other drive's. Near the knee a probe's verdict is noisy (a host
// stall overflows a buffer), so the bisection runs bisections times
// over [hi/4, hi], where hi is the first rate that failed twice, and
// the answer is the median of their results. The bracket reaches below
// the last rate that passed, hi/2, because that pass may have been
// lucky. A search in which no probe failed reports its best rate as
// capped.
func searchRate(rc runConfig, w openLoop, scn *load.Scenario, out *report) error {
	window := min(max(rc.budget(probeShare), 100*time.Millisecond), time.Second)
	once := func(spec driveSpec) (probe, error) {
		res, err := drive(scn, spec, nil, out)
		if err != nil {
			return probe{}, err
		}
		p := probe{rate: spec.rate, p99: res.p(0.99), samples: len(res.latencies), lost: res.lostRatio(),
			grows: res.backlogGrows(), lateness: res.late(0.99), late90: res.late(0.9)}
		p.pass = p.samples > 0 && p.p99 < float64(w.p99Limit)/1e6 && res.lost == 0 && !p.grows
		return p, nil
	}
	// A failed probe whose injector ran later than latenessLimit at p99
	// but on time at p90 (within stallP90) was failed by a host stall,
	// which delays a few percent of the arrivals and which a measured
	// drive discards: it is driven once more, and that verdict stands.
	// When the p90 is late too, most arrivals waited: the system's load
	// on the processors the injector shares held it back, and the
	// verdict stands.
	run := func(rate float64) (probe, error) {
		spec := driveSpec{rate: rate, burst: w.burst, phase: seedPhase(rc.seed), warmup: probeWarmup, window: window}
		p, err := once(spec)
		if err == nil && !p.pass && p.lateness > float64(latenessLimit.Microseconds()) &&
			p.late90 <= float64(stallP90.Microseconds()) {
			out.notef("probe driven again, the injector ran late: %s", p)
			p, err = once(spec)
		}
		return p, err
	}

	// The bracket's top is the first rate that fails twice in a row on
	// fresh deployments: one host stall must not collapse the search.
	var lo, hi probe
	rate := w.searchFrom
	for i := 0; i < maxGrow; i++ {
		p, err := run(rate)
		if err == nil && !p.pass {
			p, err = run(rate)
		}
		if err != nil {
			return err
		}
		if !p.pass {
			hi = p
			break
		}
		lo, rate = p, rate*2
	}
	if hi.rate == 0 {
		out.notef("search capped: no probe failed up to %.0f/s; the rate is a lower bound", lo.rate)
		return nil
	}
	var answers []float64
	for b := 0; b < bisections; b++ {
		blo, bhi := probe{rate: hi.rate / 4}, hi
		for i := 0; i < bisectSteps; i++ {
			p, err := run(math.Sqrt(blo.rate * bhi.rate))
			if err != nil {
				return err
			}
			if p.pass {
				blo = p
			} else {
				bhi = p
			}
		}
		answers = append(answers, blo.rate)
		if blo.samples == 0 {
			out.notef("bisection %d: no probe passed; %.0f/s is the bracket's floor, not measured", b, blo.rate)
		} else {
			out.notef("bisection %d: %.0f/s passes; first failing neighbour %s", b, blo.rate, bhi)
		}
	}
	out.notef("sustainable rate %.0f/s under a %v p99 limit (median of %v)", median(answers), w.p99Limit, answers)
	return nil
}

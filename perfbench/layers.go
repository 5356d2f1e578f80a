package main

import (
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/cluster"
	"soleil/internal/comm"
	"soleil/internal/dist"
	"soleil/internal/fixture"
	"soleil/internal/load"
	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/obs"
	"soleil/internal/patterns"
	"soleil/internal/qos"
	"soleil/internal/rtsj/memory"
	"soleil/internal/rtsj/thread"
	"soleil/internal/validate"
)

const (
	// layerReps repeats each set-up layer timing; the median is kept.
	layerReps = 5
	// idleWindow is how long the deployed, idle system is watched.
	idleWindow = 500 * time.Millisecond
	// tracedShare is the budget share of each traced-run drive;
	// overheadPairs untraced and traced drives alternate.
	tracedShare   = 0.05
	overheadPairs = 4
	// microBenchtime is each micro-benchmark's testing.Benchmark
	// budget.
	microBenchtime = "100ms"
	// minCoverage is the trace's tolerance: the spans of an arrival
	// must account for this share of its end-to-end latency, on
	// average.
	minCoverage = 0.99
)

// timeReps returns the median duration of fn over layerReps calls, in
// ms.
func timeReps(fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// runOpenLoopTraced is the traced run of an open-loop workload: layer
// timings of set-up, the idle system, an untraced reference drive, a
// traced drive at the same rate, and the micro-benchmarks.
func runOpenLoopTraced(rc runConfig, w openLoop, scn *load.Scenario, out *report) error {
	synth, err := timeReps(func() error { _, err := synthesize(w); return err })
	if err != nil {
		return err
	}
	out.set("load.synthesize_ms", synth)
	if err := setupLayers(scn, out); err != nil {
		return err
	}
	if err := evaluationLayer(out); err != nil {
		return err
	}

	// Idle: deployed and paced, no traffic.
	s, err := deploy(scn, newLedger(nil), nil)
	if err != nil {
		return err
	}
	cpu0 := cpuTime()
	time.Sleep(idleWindow)
	out.set("assembly.idle_cpu_ms_per_s", float64((cpuTime()-cpu0).Microseconds())/1e3/idleWindow.Seconds())
	s.close()

	// Untraced reference drives and traced drives alternate at the fixed
	// rate, and the overhead compares their median p50s: one pair alone
	// differs by its deployments' pacer phases, which moved it by up to
	// 25% either way. The last pair gives the layer figures.
	spec := w.fixedSpec(rc)
	spec.window = max(rc.budget(tracedShare), 200*time.Millisecond)
	tr := newScenarioTracer(scn)
	paths, err := tr.scenarioPaths(scn)
	if err != nil {
		return err
	}
	rd := rc.redrive()
	var ref, traced *driveResult
	var refP50, tracedP50 []float64
	for i := 0; i < overheadPairs; i++ {
		if ref, err = measuredDrive(scn, spec, nil, out, rd); err != nil {
			return err
		}
		out.count(ref.arrivals, ref.lost)
		if traced, err = measuredDrive(scn, spec, tr, out, rd); err != nil {
			return err
		}
		out.count(traced.arrivals, traced.lost)
		refP50, tracedP50 = append(refP50, ref.p(0.5)), append(tracedP50, traced.p(0.5))
	}
	out.set("load.lateness_us.p99", quantile(ref.lateness, 0.99))
	out.set("load.lateness_us.max", quantile(ref.lateness, 1))
	out.set("gc.cycles_per_kmsg", float64(ref.gcCycles)/(float64(ref.arrivals)/1e3))
	out.set("gc.pause_ms_total", float64(ref.gcPause.Microseconds())/1e3)
	out.set("comm.depth_max", float64(ref.depthMax))
	out.set("comm.dropped", float64(ref.queueDropped))
	var admitted, shed int64
	for _, g := range ref.gates {
		admitted += g.admitted
		shed += g.shed
		out.notef("gate %s: admitted %d, shed %d (contract %.0f/s, burst %d)", g.name, g.admitted, g.shed, g.rate, g.burst)
	}
	for _, d := range ref.drops {
		out.notef("drops at %s", d)
	}
	out.set("qos.admitted", float64(admitted))
	out.set("qos.shed", float64(shed))
	out.set("cluster.reconnects", float64(ref.reconnects))

	st := tr.analyze(traced.led, paths, nodeOfScenario(scn))
	setSpanStats(st, out)
	refMid, tracedMid := median(refP50), median(tracedP50)
	out.set("trace.overhead_pct", 100*(tracedMid-refMid)/refMid)
	out.notef("untraced p50 %.3f ms, traced p50 %.3f ms (medians of %d drives each); %d arrivals traced, %d release waits, %d link hops",
		refMid, tracedMid, overheadPairs, st.traced, len(st.releaseWait), len(st.linkHop))
	if !tr.dispatch {
		out.notef("cluster agents take no Config.Interceptors: dispatch spans fall back to content spans, dispatch self time reads 0")
	}
	path := filepath.Join(rc.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, rc.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	out.notef("spans written to %s", path)
	return microBenchmarks(out)
}

// setSpanStats reports a traced run's span figures and checks its
// coverage: on average the spans must account for the end-to-end time
// within minCoverage, and every traced request that completed must
// have recorded every span on its path.
func setSpanStats(st *spanStats, out *report) {
	out.set("assembly.release_wait_us.p50", quantile(st.releaseWait, 0.5))
	out.set("assembly.release_wait_us.p99", quantile(st.releaseWait, 0.99))
	out.set("cluster.link_hop_us.p50", quantile(st.linkHop, 0.5))
	out.set("membrane.send_us.p50", quantile(st.send, 0.5))
	out.set("membrane.dispatch_self_us.p50", quantile(st.dispatchSelf, 0.5))
	out.set("content.self_us.p50", quantile(st.contentSelf, 0.5))
	var sum float64
	for _, c := range st.coverage {
		sum += c
	}
	mean := 0.0
	if len(st.coverage) > 0 {
		mean = sum / float64(len(st.coverage))
	}
	out.set("trace.coverage", mean)
	if st.traced == 0 || mean < minCoverage || mean > 2-minCoverage {
		out.failf("trace coverage %.4f over %d traced requests is outside %.2f..%.2f", mean, st.traced, minCoverage, 2-minCoverage)
	}
	if st.incomplete > 0 {
		out.failf("trace: %d of %d traced requests miss a span on their path", st.incomplete, st.traced)
	}
}

// nodeOfScenario places each component on its deployment node (0 in
// process), from the scenario's deployment descriptor.
func nodeOfScenario(scn *load.Scenario) map[string]int {
	nodeOf := make(map[string]int)
	if scn.Deploy == nil {
		return nodeOf
	}
	for i, n := range scn.Deploy.Nodes() {
		for _, c := range n.Assigned {
			nodeOf[c] = i
		}
	}
	return nodeOf
}

// setupLayers times validate.Validate, assembly.Deploy and
// cluster.Start of every agent with its links up.
func setupLayers(scn *load.Scenario, out *report) error {
	v, err := timeReps(func() error {
		if rep := validate.Validate(scn.Arch); !rep.OK() {
			return fmt.Errorf("architecture does not validate")
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("validate.validate_ms", v)

	archs := []*model.Architecture{scn.Arch}
	if scn.Deploy != nil {
		plan, err := cluster.Compute(scn.Arch, scn.Deploy)
		if err != nil {
			return err
		}
		archs = archs[:0]
		for _, np := range plan.Nodes() {
			archs = append(archs, np.Arch)
		}
	}
	d, err := timeReps(func() error {
		for _, a := range archs {
			reg, err := newRegistry(newLedger(nil), nil)
			if err != nil {
				return err
			}
			if _, err := assembly.Deploy(a, assembly.Config{Mode: assembly.Soleil, Registry: reg, Resilient: true, Metrics: obs.NewRegistry()}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("assembly.deploy_ms", d)

	// cluster.Start is timed on the workload's own split, or, in
	// process, on the same shape split over three agents, so every
	// open-loop workload measures the layer.
	cl := scn
	if scn.Deploy == nil {
		spec := scn.Spec
		spec.Nodes = 3
		if cl, err = load.Synthesize(spec); err != nil {
			return err
		}
	}
	var starts []float64
	for i := 0; i < layerReps; i++ {
		s, err := deploy(cl, newLedger(nil), nil)
		if err != nil {
			return err
		}
		starts = append(starts, float64(s.start.Nanoseconds())/1e6)
		s.close()
	}
	out.set("cluster.start_ms", median(starts))
	return nil
}

// evaluationLayer times evaluation.New of the four Fig. 7 variants.
func evaluationLayer(out *report) error {
	ms, err := timeReps(func() error {
		vs, _, err := buildVariants()
		closeVariants(vs)
		return err
	})
	if err != nil {
		return err
	}
	out.set("evaluation.new_ms", ms)
	return nil
}

// runFig7Traced is fig7's traced run: the motivation example deployed
// in SOLEIL mode with the tracer's factories, interceptors and client
// ports, against an untraced twin. Open-loop layers read 0.
func runFig7Traced(rc runConfig, out *report) error {
	if err := evaluationLayer(out); err != nil {
		return err
	}
	var validates, deploys []float64
	for i := 0; i < layerReps; i++ {
		fs, err := deployFig7(nil)
		if err != nil {
			return err
		}
		fs.close()
		validates = append(validates, float64(fs.validate.Nanoseconds())/1e6)
		deploys = append(deploys, float64(fs.deploy.Nanoseconds())/1e6)
	}
	out.set("validate.validate_ms", median(validates))
	out.set("assembly.deploy_ms", median(deploys))

	ref, err := deployFig7(nil)
	if err != nil {
		return err
	}
	defer ref.close()
	tr := newTracer([]string{fixture.ProductionLine, fixture.MonitoringSystem, fixture.Console, fixture.Audit}, true)
	// tracedIDs transactions on each deployment, in rounds of one
	// batch on each in a seeded order; every traced transaction
	// records its spans.
	n := int64(tracedIDs)
	tr.reset(n)
	traced, err := deployFig7(tr)
	if err != nil {
		return err
	}
	defer traced.close()

	cpu0 := cpuTime()
	time.Sleep(idleWindow)
	out.set("assembly.idle_cpu_ms_per_s", float64((cpuTime()-cpu0).Microseconds())/1e3/idleWindow.Seconds())

	for i := 0; i < fig7Warmup; i++ {
		if err := ref.txn(); err != nil {
			return err
		}
		if err := traced.txn(); err != nil {
			return err
		}
	}
	starts, ends := make([]int64, n), make([]int64, n)
	alerted := make([]bool, n)
	refSamples := make([]float64, 0, n)
	rng := rand.New(rand.NewSource(rc.seed))
	runtime.GC()
	mem0 := memStats()
	var id int64
	tracedBatch := func() error {
		for k := 0; k < fig7Batch && id < n; k++ {
			alerts := traced.alerts()
			tr.cur = id
			starts[id] = now()
			err := traced.txn()
			ends[id] = now()
			tr.cur = -1
			if err != nil {
				return err
			}
			alerted[id] = traced.alerts() != alerts
			id++
		}
		return nil
	}
	refBatch := func() error {
		for k := 0; k < fig7Batch; k++ {
			t0 := now()
			if err := ref.txn(); err != nil {
				return err
			}
			refSamples = append(refSamples, float64(now()-t0)/1e3)
		}
		return nil
	}
	for id < n {
		batches := []func() error{tracedBatch, refBatch}
		rng.Shuffle(2, func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
		for _, batch := range batches {
			if err := batch(); err != nil {
				return err
			}
		}
	}
	mem1 := memStats()
	out.count(2*n, 0)
	out.set("gc.cycles_per_kmsg", float64(mem1.NumGC-mem0.NumGC)/(float64(2*n)/1e3))
	out.set("gc.pause_ms_total", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)

	st := tr.analyzeFig7(starts, ends, alerted)
	setSpanStats(st, out)
	tracedSamples := make([]float64, n)
	for i := range tracedSamples {
		tracedSamples[i] = float64(ends[i]-starts[i]) / 1e3
	}
	refP50, trP50 := median(refSamples), median(tracedSamples)
	out.set("trace.overhead_pct", 100*(trP50-refP50)/refP50)
	out.notef("untraced SOLEIL p50 %.3f µs, traced p50 %.3f µs over %d transactions each", refP50, trP50, n)
	for _, name := range []string{
		"load.synthesize_ms", "comm.depth_max", "comm.dropped", "qos.admitted", "qos.shed",
		"cluster.start_ms", "cluster.reconnects", "load.lateness_us.p99", "load.lateness_us.max",
	} {
		out.set(name, 0)
	}
	path := filepath.Join(rc.outDir, fmt.Sprintf("fig7-seed%d.spans.jsonl", rc.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	out.notef("spans written to %s", path)
	return microBenchmarks(out)
}

// benchSink keeps micro-benchmark results alive.
var benchSink any

// microBenchmarks measures single layer operations through their
// public functions with testing.Benchmark.
func microBenchmarks(out *report) error {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchtime); err != nil {
		return err
	}
	rt := memory.NewRuntime()
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		return err
	}
	defer ctx.Close()
	env := thread.NewEnv(nil, ctx)
	newBuf := func() (*comm.RTBuffer, error) {
		return comm.NewRTBuffer("bench", 16, comm.Refuse, rt.Immortal(), 256)
	}

	buf, err := newBuf()
	if err != nil {
		return err
	}
	hopBuf, err := newBuf()
	if err != nil {
		return err
	}
	stub, err := membrane.NewAsyncStub(hopBuf, "in")
	if err != nil {
		return err
	}
	srv, err := membrane.New("bench", &sink{led: newLedger(make([]int64, 1))}, &membrane.ActiveInterceptor{})
	if err != nil {
		return err
	}
	if err := srv.Lifecycle().Start(); err != nil {
		return err
	}
	skel, err := membrane.NewAsyncSkeleton(hopBuf, srv)
	if err != nil {
		return err
	}
	admit := qos.NewGate("admit", &model.Contract{MaxRate: 1e12, Burst: 1000})
	shed := qos.NewGate("shed", &model.Contract{MaxRate: 1e-9, Burst: 1, Policy: model.Shed})
	_ = shed.Admit() // take the one token: every later call sheds
	msg := membrane.AsyncMessage{Interface: "in", Op: "put", Arg: int64(7)}
	var hist obs.Histogram
	encoded, err := dist.EncodeMessage("in", "put", int64(7), obs.SpanContext{})
	if err != nil {
		return err
	}

	var benchErr error
	fail := func(b *testing.B, err error) {
		benchErr = err
		b.SkipNow()
	}
	for _, m := range []struct {
		ns, allocs string
		fn         func(b *testing.B)
	}{
		{"comm.hop_ns", "comm.hop_allocs", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := buf.Enqueue(ctx, int64(i)); err != nil {
					fail(b, err)
				}
				v, _, err := buf.Dequeue(ctx)
				if err != nil {
					fail(b, err)
				}
				benchSink = v
			}
		}},
		{"patterns.copy_ns", "patterns.copy_allocs", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = patterns.CopyValue(msg)
			}
		}},
		{"membrane.async_hop_ns", "membrane.async_hop_allocs", func(b *testing.B) {
			// Arrival id 0 of a one-arrival ledger: the sink completes it
			// once, then counts duplicates, which this loop ignores.
			for i := 0; i < b.N; i++ {
				if err := stub.Send(env, "put", int64(0)); err != nil {
					fail(b, err)
				}
				if _, err := skel.DrainOne(env); err != nil {
					fail(b, err)
				}
			}
		}},
		{"qos.admit_ns", "", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := admit.Admit(); err != nil {
					fail(b, err)
				}
			}
		}},
		{"qos.shed_ns", "", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := shed.Admit(); err == nil {
					fail(b, fmt.Errorf("shed gate admitted"))
				}
			}
		}},
		{"dist.encode_ns", "", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := dist.EncodeMessage("in", "put", int64(i), obs.SpanContext{})
				if err != nil {
					fail(b, err)
				}
				benchSink = p
			}
		}},
		{"obs.observe_ns", "", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hist.Observe(time.Duration(i&1023) * time.Microsecond)
			}
		}},
	} {
		r := testing.Benchmark(func(b *testing.B) { b.ReportAllocs(); m.fn(b) })
		if benchErr != nil {
			return fmt.Errorf("%s: %w", m.ns, benchErr)
		}
		out.set(m.ns, float64(r.T.Nanoseconds())/float64(max(r.N, 1)))
		if m.allocs != "" {
			out.set(m.allocs, float64(r.MemAllocs)/float64(max(r.N, 1)))
		}
	}
	out.set("dist.encode_bytes", float64(len(encoded)))
	return nil
}

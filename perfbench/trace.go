package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"soleil/internal/assembly"
	"soleil/internal/fixture"
	"soleil/internal/load"
	"soleil/internal/membrane"
	"soleil/internal/rtsj/thread"
)

// tracedIDs bounds how many arrivals of a traced drive record spans;
// the others pass through the wrappers untimed.
const tracedIDs = 4000

// span is one timed call; 0 means not recorded.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// hopRec holds the spans of one arrival in one component: dispatch
// (the timing interceptor), content (the wrapped Invoke, or Activate),
// and the rebound client port's Send and Call. Dispatch encloses
// content, which encloses the port calls.
type hopRec struct{ disp, cont, send, call span }

// tracer records spans from the benchmark's own wrappers around the
// calls into each layer. Spans are kept in memory, keyed by arrival id
// and component, and written out after the drive.
type tracer struct {
	comps []string
	index map[string]int
	// Arrivals below n whose id is a multiple of every are traced.
	n, every int64
	// cur keys the spans of a closed loop, whose payloads carry no
	// arrival id, by the transaction running; -1 keys them by the
	// payload's arrival id.
	cur  int64
	hops []hopRec
	// dispatch reports whether the timing interceptor could be
	// installed (cluster agents offer no Config.Interceptors hook).
	dispatch bool
}

func newTracer(comps []string, dispatch bool) *tracer {
	t := &tracer{comps: comps, index: make(map[string]int), cur: -1, dispatch: dispatch}
	for i, c := range comps {
		t.index[c] = i
	}
	return t
}

// newScenarioTracer traces every component of a synthesized scenario.
func newScenarioTracer(scn *load.Scenario) *tracer {
	var comps []string
	for name := range scn.Classes {
		comps = append(comps, name)
	}
	sort.Strings(comps)
	return newTracer(comps, scn.Deploy == nil)
}

// reset sizes the records for a drive of n arrivals.
func (t *tracer) reset(n int64) {
	t.n, t.every = n, max(1, n/tracedIDs)
	t.hops = make([]hopRec, (n/t.every+1)*int64(len(t.comps)))
}

// rec returns the record of a traced arrival in a component, or nil.
func (t *tracer) rec(arg any, comp int) *hopRec {
	id, ok := arg.(int64)
	if t.cur >= 0 {
		id, ok = t.cur, true
	}
	if !ok || comp < 0 || id < 0 || id >= t.n || id%t.every != 0 {
		return nil
	}
	return t.at(id, comp)
}

func (t *tracer) at(id int64, comp int) *hopRec {
	return &t.hops[(id/t.every)*int64(len(t.comps))+int64(comp)]
}

func (t *tracer) comp(name string) int {
	if i, ok := t.index[name]; ok {
		return i
	}
	return -1
}

// interceptors is the Config.Interceptors hook: one timing
// interceptor per component, outermost of those the hook deploys.
func (t *tracer) interceptors(component string) []membrane.Interceptor {
	return []membrane.Interceptor{&spanInterceptor{t: t, comp: t.comp(component)}}
}

type spanInterceptor struct {
	t    *tracer
	comp int
}

func (s *spanInterceptor) Name() string { return "perfbench-span" }

func (s *spanInterceptor) Invoke(inv *membrane.Invocation, next membrane.Handler) (any, error) {
	h := s.t.rec(inv.Arg, s.comp)
	if h == nil {
		return next(inv)
	}
	h.disp.start = now()
	r, err := next(inv)
	h.disp.end = now()
	return r, err
}

// wrapFactory wraps a registry content factory with a timed Invoke
// and Activate.
func (t *tracer) wrapFactory(f func() membrane.Content) func() membrane.Content {
	return func() membrane.Content { return &spanContent{t: t, comp: -1, inner: f()} }
}

// wrapRegistry is a registry whose factories the tracer wraps.
type wrapRegistry struct {
	t   *tracer
	reg *assembly.Registry
}

func (w wrapRegistry) Register(class string, f func() membrane.Content) error {
	return w.reg.Register(class, w.t.wrapFactory(f))
}

type spanContent struct {
	t     *tracer
	comp  int
	inner membrane.Content
}

func (c *spanContent) Init(svc *membrane.Services) error {
	c.comp = c.t.comp(svc.Name())
	return c.inner.Init(svc)
}

func (c *spanContent) Activate(env *thread.Env) error {
	a, ok := c.inner.(membrane.ActiveContent)
	if !ok {
		return nil
	}
	h := c.t.rec(nil, c.comp)
	if h == nil {
		return a.Activate(env)
	}
	h.cont.start = now()
	err := a.Activate(env)
	h.cont.end = now()
	return err
}

func (c *spanContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	h := c.t.rec(arg, c.comp)
	if h == nil {
		return c.inner.Invoke(env, itf, op, arg)
	}
	h.cont.start = now()
	r, err := c.inner.Invoke(env, itf, op, arg)
	h.cont.end = now()
	return r, err
}

// spanPort is the timing wrapper a client port is rebound to.
type spanPort struct {
	t     *tracer
	comp  int
	inner membrane.Port
}

func (p *spanPort) Call(env *thread.Env, op string, arg any) (any, error) {
	h := p.t.rec(arg, p.comp)
	if h == nil {
		return p.inner.Call(env, op, arg)
	}
	h.call.start = now()
	r, err := p.inner.Call(env, op, arg)
	h.call.end = now()
	return r, err
}

func (p *spanPort) Send(env *thread.Env, op string, arg any) error {
	h := p.t.rec(arg, p.comp)
	if h == nil {
		return p.inner.Send(env, op, arg)
	}
	h.send.start = now()
	err := p.inner.Send(env, op, arg)
	h.send.end = now()
	return err
}

// rebindPorts rebinds every client port of the system's components to
// a timing wrapper, through each membrane's binding controller.
func (t *tracer) rebindPorts(sys *assembly.System) error {
	for _, n := range sys.Nodes() {
		m, ok := membraneOf(n)
		if !ok {
			return fmt.Errorf("component %s has no membrane", n.Name())
		}
		bc := m.Binding()
		for _, itf := range bc.Bound() {
			p, err := bc.Lookup(itf)
			if err != nil {
				return err
			}
			if err := bc.Bind(itf, &spanPort{t: t, comp: t.comp(n.Name()), inner: p}); err != nil {
				return err
			}
		}
	}
	return nil
}

// spanStats are the per-layer figures of one traced run, in µs.
type spanStats struct {
	releaseWait, linkHop, send, dispatchSelf, contentSelf []float64
	coverage                                              []float64
	// traced counts the traced requests that completed; incomplete
	// those among them missing a span on their path.
	traced, incomplete int
}

// chainCoverage is the share of a traced request's end-to-end time,
// from its first instant to its last, that its recorded spans account
// for. instants are the span boundaries the request must cross, in
// causal order; a segment counts only where both its ends were
// recorded, so a span the instrumentation missed leaves its segments
// out. complete reports whether every instant was recorded.
func chainCoverage(instants []int64) (float64, bool) {
	var covered int64
	complete := true
	for i := 0; i+1 < len(instants); i++ {
		a, b := instants[i], instants[i+1]
		if a == 0 || b == 0 {
			complete = false
			continue
		}
		covered += b - a
	}
	return float64(covered) / float64(instants[len(instants)-1]-instants[0]), complete
}

func (st *spanStats) addCoverage(instants []int64) bool {
	st.traced++
	cov, complete := chainCoverage(instants)
	st.coverage = append(st.coverage, cov)
	if !complete {
		st.incomplete++
	}
	return complete
}

func (st *spanStats) sort() {
	for _, s := range [][]float64{st.releaseWait, st.linkHop, st.send, st.dispatchSelf, st.contentSelf, st.coverage} {
		sort.Float64s(s)
	}
}

// scenarioPaths returns, per entry of the scenario, the components an
// arrival injected there crosses to the sink, following each
// component's client binding.
func (t *tracer) scenarioPaths(scn *load.Scenario) ([][]int, error) {
	next := make(map[string]string)
	for _, b := range scn.Arch.Bindings() {
		if b.Client.Interface == "out" {
			next[b.Client.Component] = b.Server.Component
		}
	}
	var paths [][]int
	for _, e := range scn.Entries {
		var path []int
		for c := e; ; c = next[c] {
			if len(path) > len(t.comps) || t.comp(c) < 0 {
				return nil, fmt.Errorf("entry %s: no path to the sink %s", e, scn.Sink)
			}
			path = append(path, t.comp(c))
			if c == scn.Sink {
				break
			}
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// analyze derives self times and waits from the spans of every traced
// arrival that completed. paths[i] is the path of the arrivals injected
// at entry i (arrival id modulo the entry count); nodeOf places
// components on systems, and a wait between two systems is a cluster
// link hop. The instants an arrival must cross are its intended
// instant, its injection, per component on its path the dispatch
// start, the content start and the send, and the sink's completion;
// the wait from a send to the next component's dispatch is the release
// wait.
func (t *tracer) analyze(led *ledger, paths [][]int, nodeOf map[string]int) *spanStats {
	st := &spanStats{}
	start := func(h *hopRec) int64 {
		if t.dispatch {
			return h.disp.start
		}
		return h.cont.start
	}
	var inst []int64
	for id := int64(0); id < t.n; id += t.every {
		if led.state[id].Load() != stCompleted {
			continue
		}
		path := paths[id%int64(len(paths))]
		intended := led.intended[id]
		inst = append(inst[:0], intended, intended+led.lateness[id])
		for i, c := range path {
			h := t.at(id, c)
			if t.dispatch {
				inst = append(inst, h.disp.start)
				if h.disp.end != 0 && h.cont.end != 0 {
					st.dispatchSelf = append(st.dispatchSelf, us(h.disp.dur()-h.cont.dur()))
				}
			}
			inst = append(inst, h.cont.start)
			if i == len(path)-1 {
				inst = append(inst, intended+led.latency[id])
				if h.cont.end != 0 {
					st.contentSelf = append(st.contentSelf, us(h.cont.dur()))
				}
				break
			}
			inst = append(inst, h.send.start, h.send.end)
			if h.send.end == 0 {
				continue
			}
			st.send = append(st.send, us(h.send.dur()))
			if h.cont.end != 0 {
				st.contentSelf = append(st.contentSelf, us(h.cont.dur()-h.send.dur()))
			}
			if s := start(t.at(id, path[i+1])); s != 0 {
				wait := us(s - h.send.end)
				if nodeOf[t.comps[c]] != nodeOf[t.comps[path[i+1]]] {
					st.linkHop = append(st.linkHop, wait)
				} else {
					st.releaseWait = append(st.releaseWait, wait)
				}
			}
		}
		st.addCoverage(inst)
	}
	st.sort()
	return st
}

// analyzeFig7 derives self times and waits from the spans of every
// traced Fig. 7 transaction; starts and ends are the transactions'
// instants, alerted marks those whose monitor called the console. A
// transaction crosses, in order: the production line's activation and
// its send to the monitor, the monitor's dispatch, content, console
// call (on an anomaly, through the console's dispatch and content)
// and send to the audit log, and the audit log's dispatch and content.
func (t *tracer) analyzeFig7(starts, ends []int64, alerted []bool) *spanStats {
	st := &spanStats{}
	line, mon := t.comp(fixture.ProductionLine), t.comp(fixture.MonitoringSystem)
	con, aud := t.comp(fixture.Console), t.comp(fixture.Audit)
	var inst []int64
	for id := int64(0); id < t.n; id++ {
		l, m, c, a := t.at(id, line), t.at(id, mon), t.at(id, con), t.at(id, aud)
		inst = append(inst[:0], starts[id], l.cont.start, l.send.start, l.send.end, l.cont.end, m.disp.start, m.cont.start)
		if alerted[id] {
			inst = append(inst, m.call.start, c.disp.start, c.cont.start, c.cont.end, c.disp.end, m.call.end)
		}
		inst = append(inst, m.send.start, m.send.end, m.cont.end, m.disp.end,
			a.disp.start, a.cont.start, a.cont.end, a.disp.end, ends[id])
		if !st.addCoverage(inst) {
			continue
		}
		if alerted[id] {
			st.dispatchSelf = append(st.dispatchSelf, us(c.disp.dur()-c.cont.dur()))
			st.contentSelf = append(st.contentSelf, us(c.cont.dur()))
		}
		st.send = append(st.send, us(l.send.dur()), us(m.send.dur()))
		st.releaseWait = append(st.releaseWait, us(m.disp.start-l.send.end), us(a.disp.start-m.send.end))
		st.dispatchSelf = append(st.dispatchSelf, us(m.disp.dur()-m.cont.dur()), us(a.disp.dur()-a.cont.dur()))
		st.contentSelf = append(st.contentSelf, us(l.cont.dur()-l.send.dur()),
			us(m.cont.dur()-m.send.dur()-m.call.dur()), us(a.cont.dur()))
	}
	st.sort()
	return st
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// write saves every recorded span, one line per arrival (or
// transaction) and component, as JSON: times are ns since the
// benchmark started.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	nc := int64(len(t.comps))
	for i, h := range t.hops {
		if h == (hopRec{}) {
			continue
		}
		fmt.Fprintf(w, `{"id":%d,"component":%q,"dispatch":[%d,%d],"content":[%d,%d],"send":[%d,%d],"call":[%d,%d]}`+"\n",
			int64(i)/nc*t.every, t.comps[int64(i)%nc], h.disp.start, h.disp.end, h.cont.start, h.cont.end,
			h.send.start, h.send.end, h.call.start, h.call.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

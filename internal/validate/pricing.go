package validate

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"soleil/internal/model"
	"soleil/internal/rtsj/analysis"
)

// Pricing is the one timing model of an architecture: RT12, RT13 and
// RT16 here, SA09 and SA10 in internal/lint, and `soleil analyze` all
// price bindings with it. Built once per architecture (plus a
// deployment's node assignment and the cross-node link price), it
// defines each quantity once: the response-time analysis, a server's
// capacity (1s/cost), serve time (RTA worst case, else declared cost)
// and activation interval (period, or MIT when sporadic), a binding's
// admitted rate, the link penalty, and the drain rule. The drain rule
// is what the runtime does: a release drains every queued message, so
// a binding needs ceil(interval × inflow) slots and a message waits at
// most one interval.
type Pricing struct {
	arch   *model.Architecture
	assign map[string]string
	link   time.Duration

	// Tasks is the response-time analysis task set: the periodic
	// components with a cost budget and a ThreadDomain, highest
	// priority first.
	Tasks []analysis.Task
	// Responses holds one result per task, in task order; nil when the
	// task set is empty or the analysis does not apply (RTAErr).
	Responses []analysis.Response
	// RTAErr reports a task set the analysis cannot judge (for example
	// a deadline beyond the period).
	RTAErr error

	byTask map[string]analysis.Response
	// inbound is the propagated inbound rate per component, computed
	// on first use: only rate propagation (SA10) needs it.
	inbound map[string]float64
}

// DefaultLinkPenalty is the cross-node hop price when no benchmark
// file is available: the order of a loopback TCP round trip.
const DefaultLinkPenalty = 300 * time.Microsecond

// NewPricing builds the timing model of a. assign maps component name
// to deployment node (nil when in-process); link is the one-way price
// of a cross-node hop, DefaultLinkPenalty when 0.
func NewPricing(a *model.Architecture, assign map[string]string, link time.Duration) *Pricing {
	if link <= 0 {
		link = DefaultLinkPenalty
	}
	p := &Pricing{arch: a, assign: assign, link: link}
	for _, c := range a.ComponentsOfKind(model.Active) {
		act := c.Activation()
		if act.Kind != model.PeriodicActivation || act.Cost <= 0 {
			continue
		}
		td, err := a.EffectiveThreadDomain(c)
		if err != nil {
			continue // RT01 reports it
		}
		p.Tasks = append(p.Tasks, analysis.Task{
			Name:     c.Name(),
			Period:   act.Period,
			Cost:     act.Cost,
			Deadline: act.Deadline,
			Priority: td.Domain().Priority,
		})
	}
	if len(p.Tasks) == 0 {
		return p
	}
	sort.SliceStable(p.Tasks, func(i, j int) bool { return p.Tasks[i].Priority > p.Tasks[j].Priority })
	p.Responses, p.RTAErr = analysis.ResponseTimeAnalysis(p.Tasks)
	p.byTask = make(map[string]analysis.Response, len(p.Responses))
	for _, r := range p.Responses {
		p.byTask[r.Task] = r
	}
	return p
}

// Serve is the worst-case time the named server takes to serve one
// release: the RTA worst case when analyzed (true), else its declared
// cost.
func (p *Pricing) Serve(name string) (time.Duration, bool) {
	if r, ok := p.byTask[name]; ok {
		return r.WorstCase, true
	}
	if c, ok := p.arch.Component(name); ok {
		if act := c.Activation(); act != nil {
			return act.Cost, false
		}
	}
	return 0, false
}

// Capacity is the messages per second a server can process, one
// release per declared cost; 0 when the cost is unknown.
func Capacity(c *model.Component) float64 {
	if act := c.Activation(); act != nil && act.Cost > 0 {
		return float64(time.Second) / float64(act.Cost)
	}
	return 0
}

// Interval is a component's activation interval: the period of a
// periodic component, the minimum interarrival time of a sporadic one,
// 0 when releases are not spaced (it drains on arrival).
func Interval(c *model.Component) time.Duration {
	if act := c.Activation(); act != nil && act.Kind != model.AperiodicActivation {
		return act.Period
	}
	return 0
}

// ReleaseRate is the rate a periodic component sends at on a binding,
// one message per release; 0 for other components.
func ReleaseRate(c *model.Component) float64 {
	if act := c.Activation(); act != nil && act.Kind == model.PeriodicActivation && act.Period > 0 {
		return float64(time.Second) / float64(act.Period)
	}
	return 0
}

// Slots is the drain rule: a release drains every queued message, so
// a buffer feeding a server with the given activation interval at the
// given rate needs ceil(interval × rate) slots. The rounding tolerance
// absorbs float error when the interval is an exact multiple of the
// inter-message time.
func Slots(interval time.Duration, rate float64) int {
	return int(math.Ceil(interval.Seconds()*rate - 1e-9))
}

// Residence is the longest a message waits in the binding's buffer
// before a release drains it: one activation interval of the server
// (0 for synchronous bindings and servers that drain on arrival).
func (p *Pricing) Residence(b *model.Binding) time.Duration {
	if b.Protocol != model.Asynchronous {
		return 0
	}
	srv, _ := p.arch.Component(b.Server.Component) // Bind checked it exists
	return Interval(srv)
}

// Link is the cross-node penalty of the binding: the link price when
// the deployment puts its endpoints on different nodes, else 0.
func (p *Pricing) Link(b *model.Binding) time.Duration {
	cn, sn := p.assign[b.Client.Component], p.assign[b.Server.Component]
	if cn == "" || sn == "" || cn == sn {
		return 0
	}
	return p.link
}

// Hop is the worst-case latency of one binding hop: link penalty,
// buffer residence and the server's serve time.
func (p *Pricing) Hop(b *model.Binding) time.Duration {
	serve, _ := p.Serve(b.Server.Component)
	return p.Link(b) + p.Residence(b) + serve
}

// Rate is the binding's admitted message rate: the contract's maxRate,
// else the periodic client's release rate, else the rate propagated
// into the client (0 when none is statically known).
func (p *Pricing) Rate(b *model.Binding) float64 {
	if b.Contract != nil && b.Contract.MaxRate > 0 {
		return b.Contract.MaxRate
	}
	cli, _ := p.arch.Component(b.Client.Component) // Bind checked it exists
	if r := ReleaseRate(cli); r > 0 {
		return r
	}
	return p.Inbound()[b.Client.Component]
}

// Inbound returns the total admitted inbound rate per component,
// propagated to a fixpoint through relay components that have no
// release rate of their own (bounded: rates only flow forward, cycles
// damp out at the iteration cap). It is computed on first use.
func (p *Pricing) Inbound() map[string]float64 {
	if p.inbound != nil {
		return p.inbound
	}
	bindings := p.arch.Bindings()
	// Each round's Rate calls read the previous round's map through
	// p.inbound, which is non-nil from here on.
	p.inbound = map[string]float64{}
	for i := 0; i < len(bindings)+1; i++ {
		next := map[string]float64{}
		for _, b := range bindings {
			if r := p.Rate(b); r > 0 {
				next[b.Server.Component] += r
			}
		}
		if maps.Equal(p.inbound, next) {
			break
		}
		p.inbound = next
	}
	return p.inbound
}

// LinkPenaltyFromBench prices the cross-node hop from the measured
// cluster-loopback round trip in BENCH_cluster.json (searched in dir
// and its parents), halved to a one-way figure; DefaultLinkPenalty
// stands in when no benchmark has been recorded.
func LinkPenaltyFromBench(dir string) time.Duration {
	if dir == "" {
		dir = "."
	}
	for d := dir; ; {
		if b, err := os.ReadFile(filepath.Join(d, "BENCH_cluster.json")); err == nil {
			var doc struct {
				Rows []struct {
					Scenario  string `json:"scenario"`
					RTTMedian int64  `json:"rttMedian"`
				} `json:"rows"`
			}
			if json.Unmarshal(b, &doc) == nil {
				for _, s := range doc.Rows {
					if s.Scenario == "cluster-loopback" && s.RTTMedian > 0 {
						return time.Duration(s.RTTMedian) / 2
					}
				}
			}
		}
		parent := filepath.Dir(d)
		if parent == d {
			return DefaultLinkPenalty
		}
		d = parent
	}
}

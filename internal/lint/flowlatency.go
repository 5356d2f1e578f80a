package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"time"

	"soleil/internal/model"
	"soleil/internal/validate"
)

// FlowLatency (SA09) composes per-hop worst-case response along every
// binding path of the architecture and checks the sums against the
// latency contracts and the clients' deadlines. RT16 already judges
// each contracted binding in isolation; this pass closes the gap
// "Contract Aware Components" identifies between per-binding
// contracts and whole-path QoS: a 1 ms terminal budget is unmeetable
// when four queued releases and a node hop sit upstream of it, even
// though every hop honours its own contract.
//
// The hop model prices three components of response:
//
//   - serve: the server's worst-case response from the same
//     response-time analysis the validator runs (RT12), falling back
//     to the declared cost when the server is outside the task set;
//   - queue residence: for an asynchronous hop, one activation
//     interval of the server (period for periodic servers, minimum
//     interarrival for sporadic ones) — a release drains every queued
//     message, so none waits longer;
//   - link: a cross-node penalty when the deployment assigns the
//     endpoints to different nodes, priced from the measured
//     cluster-loopback round trip in BENCH_cluster.json.
//
// All three come from the pricing core (validate.Pricing), the model
// RT12, RT13 and RT16 judge with.
//
// Two checks: every path ending in a binding with a latencyBudget
// must fit the budget (worst path reported per contract), and every
// all-synchronous chain from a periodic client must fit the client's
// deadline — the client blocks through the whole chain inside its own
// release.
var FlowLatency = &ArchAnalyzer{
	Name: "flowlatency",
	Rule: "SA09",
	Doc: "composes worst-case response (RTA + queue residence + cross-node link penalty) " +
		"along every binding path and flags paths exceeding the terminal contract's " +
		"latencyBudget or the client's deadline",
	Run: runFlowLatency,
}

// flowPathCap bounds the simple-path enumeration; architectures are
// small, this is a defensive ceiling.
const flowPathCap = 4096

func runFlowLatency(p *ArchPass) error {
	facts := p.Facts
	pr := facts.Pricing()
	out := map[string][]*model.Binding{}
	for _, b := range facts.Arch.Bindings() {
		out[b.Client.Component] = append(out[b.Client.Component], b)
	}

	type worst struct {
		sum  time.Duration
		path []*model.Binding
	}
	worstPerContract := map[*model.Binding]worst{}
	worstSyncChain := map[string]worst{}

	origins := make([]string, 0, len(out))
	for c := range out {
		origins = append(origins, c)
	}
	sort.Strings(origins)

	paths := 0
	var path []*model.Binding
	onPath := map[string]bool{}
	var dfs func(from string, sum time.Duration, allSync bool, origin string)
	dfs = func(from string, sum time.Duration, allSync bool, origin string) {
		if paths >= flowPathCap {
			return
		}
		for _, b := range out[from] {
			if onPath[b.Server.Component] {
				continue // cycles are SA05's finding, not a latency path
			}
			paths++
			total := sum + pr.Hop(b)
			path = append(path, b)
			if c := b.Contract; c != nil && c.LatencyBudget > 0 {
				if w, ok := worstPerContract[b]; !ok || total > w.sum {
					worstPerContract[b] = worst{sum: total, path: append([]*model.Binding{}, path...)}
				}
			}
			sync := allSync && b.Protocol == model.Synchronous
			if sync {
				if w, ok := worstSyncChain[origin]; !ok || total > w.sum {
					worstSyncChain[origin] = worst{sum: total, path: append([]*model.Binding{}, path...)}
				}
			}
			onPath[b.Server.Component] = true
			dfs(b.Server.Component, total, sync, origin)
			delete(onPath, b.Server.Component)
			path = path[:len(path)-1]
		}
	}
	for _, origin := range origins {
		onPath[origin] = true
		dfs(origin, 0, true, origin)
		delete(onPath, origin)
	}

	// Contracted paths vs latencyBudget.
	var contracted []*model.Binding
	for b := range worstPerContract {
		contracted = append(contracted, b)
	}
	sort.Slice(contracted, func(i, j int) bool {
		return contracted[i].String() < contracted[j].String()
	})
	for _, b := range contracted {
		w := worstPerContract[b]
		if w.sum <= b.Contract.LatencyBudget {
			continue
		}
		p.Report(Finding{
			Pos:      flowAnchor(facts, w.path),
			Severity: validate.Error,
			Subject:  b.String(),
			Message: fmt.Sprintf("end-to-end worst-case latency %v along %s exceeds the contract's latencyBudget %v: %s",
				w.sum, pathString(w.path), b.Contract.LatencyBudget, hopBreakdown(pr, w.path)),
			Suggestion: "shorten the activation intervals of queued servers on the path, speed the servers up, or raise the budget to what the path can deliver",
			Flow:       pathFlow(facts, pr, w.path),
		})
	}

	// All-sync chains vs the origin client's deadline.
	var chainOrigins []string
	for c := range worstSyncChain {
		chainOrigins = append(chainOrigins, c)
	}
	sort.Strings(chainOrigins)
	for _, origin := range chainOrigins {
		cli, ok := facts.Arch.Component(origin)
		if !ok || cli.Kind() != model.Active {
			continue
		}
		act := cli.Activation()
		if act == nil || act.Kind != model.PeriodicActivation {
			continue
		}
		deadline := act.Deadline
		if deadline <= 0 {
			deadline = act.Period
		}
		if deadline <= 0 {
			continue
		}
		w := worstSyncChain[origin]
		if w.sum <= deadline {
			continue
		}
		p.Report(Finding{
			Pos:      flowAnchor(facts, w.path),
			Severity: validate.Error,
			Subject:  origin,
			Message: fmt.Sprintf("synchronous chain %s costs %v in the worst case, exceeding %s's deadline %v: "+
				"the client blocks through the whole chain inside its own release (%s)",
				pathString(w.path), w.sum, origin, deadline, hopBreakdown(pr, w.path)),
			Suggestion: "make a hop asynchronous to decouple the chain from the client's release, or shorten the path",
			Flow:       pathFlow(facts, pr, w.path),
		})
	}
	return nil
}

func pathString(path []*model.Binding) string {
	var sb strings.Builder
	for i, b := range path {
		if i == 0 {
			sb.WriteString(b.Client.Component)
		}
		fmt.Fprintf(&sb, " -%s-> %s", b.Client.Interface, b.Server.Component)
	}
	return sb.String()
}

// hopTerms itemizes one hop's price: link penalty, queue residence
// and serve time, as the pricing core computes them.
func hopTerms(pr *validate.Pricing, b *model.Binding) string {
	var terms []string
	if l := pr.Link(b); l > 0 {
		terms = append(terms, fmt.Sprintf("link %v", l))
	}
	if q := pr.Residence(b); q > 0 {
		terms = append(terms, fmt.Sprintf("queue %v", q))
	}
	if s, _ := pr.Serve(b.Server.Component); s > 0 {
		terms = append(terms, fmt.Sprintf("serve %v", s))
	}
	if len(terms) == 0 {
		return "0"
	}
	return strings.Join(terms, " + ")
}

// hopBreakdown itemizes the path sum so the finding shows its math.
func hopBreakdown(pr *validate.Pricing, path []*model.Binding) string {
	parts := make([]string, len(path))
	for i, b := range path {
		parts[i] = b.Server.Component + ": " + hopTerms(pr, b)
	}
	return strings.Join(parts, "; ")
}

// pathFlow renders the path as flow steps for SARIF codeFlows.
func pathFlow(facts *ArchFacts, pr *validate.Pricing, path []*model.Binding) []validate.FlowStep {
	flow := make([]validate.FlowStep, len(path))
	for i, b := range path {
		flow[i] = validate.FlowStep{
			Note: fmt.Sprintf("%s -> %s (%s: %s)", b.Client.Component, b.Server.Component, b.Protocol, hopTerms(pr, b)),
			Pos:  implAnchor(facts, b.Server.Component),
		}
	}
	return flow
}

// regPos is the registration position of the first implementation of
// the named component's class, NoPos when none is registered.
func regPos(facts *ArchFacts, component string) token.Pos {
	for _, im := range facts.ImplsOf(component) {
		if im.RegPos.IsValid() {
			return im.RegPos
		}
	}
	return token.NoPos
}

// anchorOf picks a code position for a finding: the registration of
// the first named component with a registered implementation, else
// the package anchor.
func anchorOf(facts *ArchFacts, components ...string) token.Pos {
	for _, name := range components {
		if pos := regPos(facts, name); pos.IsValid() {
			return pos
		}
	}
	return facts.Anchor()
}

// flowAnchor anchors a path finding at the first endpoint along the
// path with a registered implementation.
func flowAnchor(facts *ArchFacts, path []*model.Binding) token.Pos {
	var names []string
	for _, b := range path {
		names = append(names, b.Client.Component, b.Server.Component)
	}
	return anchorOf(facts, names...)
}

func implAnchor(facts *ArchFacts, component string) string {
	if pos := regPos(facts, component); pos.IsValid() {
		return facts.Fset.Position(pos).String()
	}
	return ""
}

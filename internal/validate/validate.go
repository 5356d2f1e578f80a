// Package validate implements the RTSJ conformance verification the
// paper runs during the design process (Sect. 3.1-3.2): compositions
// that violate RTSJ are identified with immediate feedback, and the
// points where cross-scope glue code must be deployed are marked with
// a suggested communication pattern.
package validate

import (
	"fmt"

	"soleil/internal/model"
	"soleil/internal/patterns"
	"soleil/internal/rtsj/sched"
)

// Severity grades a diagnostic.
type Severity int

// Severities.
const (
	Info Severity = iota + 1
	Warning
	Error
)

// String returns the severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Diagnostic is one finding of the conformance checker. The same
// shape carries both architecture-level findings (rules RT01–RT13,
// produced by Validate over the ADL model) and source-level findings
// (rules SA01–SA04, produced by internal/lint over the Go code), so
// `soleil validate -json` and `soleil vet -json` speak one schema.
type Diagnostic struct {
	// Rule identifies the violated rule (e.g. "RT01", "SA03").
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	// Subject is the component, binding or function the finding
	// refers to.
	Subject string `json:"subject"`
	Message string `json:"message"`
	// Suggestion, when set, proposes a concrete fix (e.g. the
	// communication pattern to deploy).
	Suggestion string `json:"suggestion,omitempty"`
	// Pos, when set, is the source position of the finding
	// (file:line:col). Architecture-level findings have no position.
	Pos string `json:"pos,omitempty"`
	// Flow, when set, is the call chain (or binding path) from the
	// entry point to the offending site — the interprocedural
	// explanation of the finding. SARIF export renders it as a
	// codeFlow.
	Flow []FlowStep `json:"flow,omitempty"`
}

// FlowStep is one hop of a diagnostic's flow: a position (optional)
// and a human-readable note ("(*pump).Invoke calls flush").
type FlowStep struct {
	Pos  string `json:"pos,omitempty"`
	Note string `json:"note"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s [%s] %s: %s", d.Severity, d.Rule, d.Subject, d.Message)
	if d.Suggestion != "" {
		s += " (suggestion: " + d.Suggestion + ")"
	}
	if d.Pos != "" {
		s = d.Pos + ": " + s
	}
	return s
}

// Report is the outcome of validating an architecture.
type Report struct {
	Diagnostics []Diagnostic
}

// OK reports whether the architecture is RTSJ-compliant (no
// error-severity findings).
func (r Report) OK() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			return false
		}
	}
	return true
}

// Errors returns the error-severity findings.
func (r Report) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// ByRule returns the findings for one rule.
func (r Report) ByRule(rule string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Rule == rule {
			out = append(out, d)
		}
	}
	return out
}

// The rule catalog. Each entry documents one conformance rule the
// paper's design flow enforces.
var Rules = map[string]string{
	"RT01": "every active component is deployed in exactly one ThreadDomain",
	"RT02": "ThreadDomain components are not nested inside other ThreadDomains",
	"RT03": "an NHRT ThreadDomain must not encapsulate heap memory (its components may not resolve to a heap MemoryArea)",
	"RT04": "every functional primitive resolves to exactly one nearest MemoryArea",
	"RT05": "ThreadDomains contain only active components",
	"RT06": "ThreadDomain priorities lie in the band of their thread kind (regular 1-10, RT/NHRT 11-38)",
	"RT07": "bindings crossing memory areas carry an applicable cross-scope communication pattern",
	"RT08": "synchronous bindings from no-heap domains must not reach heap-allocated servers",
	"RT09": "heap or immortal MemoryAreas are not nested inside scoped areas",
	"RT10": "asynchronous bindings terminate at active components that arrivals release (sporadic or aperiodic)",
	"RT11": "functional primitives declare a content class (needed for infrastructure generation)",
	"RT12": "periodic components with cost budgets pass response-time analysis within their ThreadDomain priorities",
	"RT13": "asynchronous buffers hold what a periodic producer sends between two releases of the server (each release drains the buffer)",
	"RT14": "a ThreadDomain or MemoryArea must not span deployment nodes (its members resolve to one node)",
	"RT15": "bindings crossing deployment nodes are asynchronous value messages; NHRT components in particular may not call synchronously off-node",
	"RT16": "binding contracts are feasible: latency budgets cover the server's worst-case response, contracted rates fit the server's processing capacity, and bursts fit the buffer",
	"RT17": "binding contracts are enforceable: the block policy may not stall real-time client domains, and cross-node contracts are client-side shed/degrade gates over asynchronous value messages",
}

// Validate checks the architecture against the full rule catalog.
func Validate(a *model.Architecture) Report {
	v := &validator{arch: a, price: NewPricing(a, nil, 0)}
	v.checkThreadDomains()
	v.checkMemoryAreas()
	v.checkFunctional()
	v.checkBindings()
	v.checkSchedulability()
	v.checkContracts()
	return Report{Diagnostics: v.diags}
}

type validator struct {
	arch  *model.Architecture
	diags []Diagnostic
	// price is the timing model RT12, RT13 and RT16 word their
	// findings from.
	price *Pricing
}

func (v *validator) add(rule string, sev Severity, subject, msg, suggestion string) {
	v.diags = append(v.diags, Diagnostic{
		Rule: rule, Severity: sev, Subject: subject, Message: msg, Suggestion: suggestion,
	})
}

// --- thread domains -----------------------------------------------------------

func (v *validator) checkThreadDomains() {
	for _, td := range v.arch.ComponentsOfKind(model.ThreadDomain) {
		d := td.Domain()
		// RT02: no nesting of thread domains.
		for _, s := range td.Supers() {
			if s.Kind() == model.ThreadDomain {
				v.add("RT02", Error, td.Name(),
					fmt.Sprintf("ThreadDomain is nested inside ThreadDomain %q; thread domains cannot nest", s.Name()),
					"deploy both domains side by side inside a MemoryArea")
			}
		}
		// RT05: children must be active.
		for _, sub := range td.Subs() {
			if sub.Kind() != model.Active {
				v.add("RT05", Error, td.Name(),
					fmt.Sprintf("contains %s component %q; ThreadDomains encapsulate active components only",
						sub.Kind(), sub.Name()),
					"move the component into a MemoryArea or a functional composite")
			}
		}
		// RT06: priority band.
		prio := sched.Priority(d.Priority)
		switch d.Kind {
		case model.RegularThread:
			if !prio.Valid() || prio.RealTime() {
				v.add("RT06", Error, td.Name(),
					fmt.Sprintf("regular thread domain has priority %d outside the regular band [%d,%d]",
						d.Priority, sched.MinPriority, sched.MaxRegularPriority), "")
			}
		default:
			if !prio.RealTime() {
				v.add("RT06", Error, td.Name(),
					fmt.Sprintf("%s thread domain has priority %d outside the real-time band [%d,%d]",
						d.Kind, d.Priority, sched.MinRTPriority, sched.MaxPriority), "")
			}
		}
		// RT03: NHRT domains must not resolve to heap areas.
		if d.Kind == model.NoHeapRealtimeThread {
			if ma, err := v.arch.EffectiveMemoryArea(td); err == nil && ma.Area().Kind == model.HeapMemory {
				v.add("RT03", Error, td.Name(),
					fmt.Sprintf("NHRT thread domain is deployed in heap MemoryArea %q", ma.Name()),
					"deploy the domain in immortal or scoped memory")
			}
			for _, sub := range td.Subs() {
				ma, err := v.arch.EffectiveMemoryArea(sub)
				if err != nil {
					continue // RT04 reports it
				}
				if ma.Area().Kind == model.HeapMemory {
					v.add("RT03", Error, sub.Name(),
						fmt.Sprintf("component of NHRT domain %q resolves to heap MemoryArea %q",
							td.Name(), ma.Name()),
						"allocate the component in immortal or scoped memory")
				}
			}
		}
	}
}

// --- memory areas ---------------------------------------------------------------

func (v *validator) checkMemoryAreas() {
	for _, ma := range v.arch.ComponentsOfKind(model.MemoryArea) {
		kind := ma.Area().Kind
		if kind == model.ScopedMemory {
			continue // scoped areas nest arbitrarily
		}
		for _, s := range ma.Supers() {
			if s.Kind() == model.MemoryArea && s.Area().Kind == model.ScopedMemory {
				v.add("RT09", Error, ma.Name(),
					fmt.Sprintf("%s MemoryArea is nested inside scoped area %q", kind, s.Name()),
					"heap and immortal memory are roots of the memory hierarchy")
			}
		}
	}
}

// --- functional components ---------------------------------------------------

func (v *validator) checkFunctional() {
	for _, c := range v.arch.Components() {
		switch c.Kind() {
		case model.Active:
			if _, err := v.arch.EffectiveThreadDomain(c); err != nil {
				v.add("RT01", Error, c.Name(), err.Error(),
					"deploy the component in exactly one ThreadDomain")
			}
			v.checkPrimitive(c)
		case model.Passive:
			v.checkPrimitive(c)
		}
	}
}

func (v *validator) checkPrimitive(c *model.Component) {
	if _, err := v.arch.EffectiveMemoryArea(c); err != nil {
		v.add("RT04", Error, c.Name(), err.Error(),
			"deploy the component (or its ThreadDomain) in a MemoryArea")
	}
	if c.Content() == "" {
		v.add("RT11", Warning, c.Name(),
			"primitive component has no content class; infrastructure generation will emit a stub", "")
	}
}

// --- bindings -------------------------------------------------------------------

func (v *validator) checkBindings() {
	for _, b := range v.arch.Bindings() {
		subject := b.String()
		cli, _ := v.arch.Component(b.Client.Component)
		srv, _ := v.arch.Component(b.Server.Component)
		cliArea, errC := v.arch.EffectiveMemoryArea(cli)
		srvArea, errS := v.arch.EffectiveMemoryArea(srv)
		if errC != nil || errS != nil {
			continue // RT04 reports the missing deployment
		}
		x := patterns.Crossing{Client: cliArea, Server: srvArea}

		// RT07: pattern presence and applicability.
		pat, err := patterns.ParseKind(b.Pattern)
		if err != nil {
			v.add("RT07", Error, subject, err.Error(),
				fmt.Sprintf("use pattern %q", patterns.Select(x, b.Protocol)))
		} else if err := patterns.Legal(pat, x, b.Protocol); err != nil {
			sev := Error
			suggestion := ""
			if pat == patterns.None && x.Crosses() {
				// Missing pattern: the validator can choose one, as
				// the paper's design flow proposes solutions.
				suggestion = fmt.Sprintf("use pattern %q", patterns.Select(x, b.Protocol))
			}
			v.add("RT07", sev, subject, err.Error(), suggestion)
		}

		// RT08: no-heap clients must not call synchronously into heap.
		if td, err := v.arch.EffectiveThreadDomain(cli); err == nil &&
			td.Domain().Kind == model.NoHeapRealtimeThread &&
			srvArea.Area().Kind == model.HeapMemory &&
			b.Protocol == model.Synchronous {
			v.add("RT08", Error, subject,
				fmt.Sprintf("synchronous call from NHRT domain %q into heap-allocated %q", td.Name(), srv.Name()),
				"use an asynchronous binding with a non-heap buffer (deep-copy pattern)")
		}

		// RT10: async servers must be actives that arrivals release.
		if b.Protocol == model.Asynchronous {
			if srv.Kind() != model.Active {
				v.add("RT10", Error, subject,
					fmt.Sprintf("asynchronous binding terminates at %s component %q, which has no thread to process messages",
						srv.Kind(), srv.Name()),
					"make the server a sporadic active component")
			} else if srv.Activation().Kind == model.PeriodicActivation {
				v.add("RT10", Warning, subject,
					fmt.Sprintf("asynchronous binding terminates at %s active component %q; arrivals will not trigger releases",
						srv.Activation().Kind, srv.Name()),
					"make the server sporadic so message arrivals release it")
			}
			v.checkRates(b, cli, srv, subject)
		}
	}
}

// checkRates applies RT13: a bounded buffer must hold what a
// periodic producer sends between two releases of the server, each of
// which drains the whole buffer.
func (v *validator) checkRates(b *model.Binding, cli, srv *model.Component, subject string) {
	rate := ReleaseRate(cli)
	interval := Interval(srv)
	if rate <= 0 || interval <= 0 {
		return // only periodic producers have a statically known rate
	}
	need := Slots(interval, rate)
	if need <= b.BufferSize {
		return
	}
	msg := fmt.Sprintf("up to %d messages arrive per server period %v but the buffer holds %d",
		need, interval, b.BufferSize)
	if srv.Activation().Kind == model.SporadicActivation {
		msg = fmt.Sprintf("up to %d messages arrive per minimum interarrival time %v of the server but the buffer holds %d; the excess backlog is refused",
			need, interval, b.BufferSize)
	}
	v.add("RT13", Warning, subject, msg, fmt.Sprintf("raise bufferSize to at least %d", need))
}

// --- schedulability -----------------------------------------------------------

func (v *validator) checkSchedulability() {
	p := v.price
	if p.RTAErr != nil {
		v.add("RT12", Warning, v.arch.Name(),
			fmt.Sprintf("response-time analysis not applicable: %v", p.RTAErr), "")
		return
	}
	for _, r := range p.Responses {
		if !r.Schedulable {
			v.add("RT12", Error, r.Task,
				fmt.Sprintf("worst-case response %v exceeds deadline %v", r.WorstCase, r.Deadline),
				"raise the component's priority, lengthen its period, or reduce its cost")
		} else {
			v.add("RT12", Info, r.Task,
				fmt.Sprintf("schedulable: worst-case response %v within deadline %v", r.WorstCase, r.Deadline), "")
		}
	}
}

// --- binding contracts --------------------------------------------------------

// checkContracts applies RT16 (feasibility: a contract must be
// honourable by the architecture it is written against) and the
// architecture half of RT17 (enforceability: the admission gate must
// be deployable without breaking the client's timing model). It runs
// after checkSchedulability so latency budgets are judged against the
// worst-case responses, not just the isolated costs.
func (v *validator) checkContracts() {
	for _, b := range v.arch.Bindings() {
		c := b.Contract
		if c == nil {
			continue
		}
		subject := b.String()
		cli, _ := v.arch.Component(b.Client.Component)
		srv, _ := v.arch.Component(b.Server.Component)

		// RT16: the contracted burst must fit the buffer — otherwise
		// the gate admits messages the buffer then drops, and the
		// sender never learns which.
		if b.Protocol == model.Asynchronous && b.BufferSize > 0 && c.EffectiveBurst() > b.BufferSize {
			v.add("RT16", Error, subject,
				fmt.Sprintf("contracted burst %d exceeds the buffer capacity %d; admitted messages would be dropped silently",
					c.EffectiveBurst(), b.BufferSize),
				fmt.Sprintf("raise bufferSize to at least %d or lower the burst", c.EffectiveBurst()))
		}

		// RT16: the contracted rate must fit the server's processing
		// capacity, or the admitted traffic itself overloads it.
		if srv != nil && c.MaxRate > 0 {
			if capacity := Capacity(srv); capacity > 0 && c.MaxRate > capacity {
				v.add("RT16", Error, subject,
					fmt.Sprintf("contracted rate %g/s exceeds the server's processing capacity %.4g/s (cost %v per release)",
						c.MaxRate, capacity, srv.Activation().Cost),
					"lower maxRate, or reduce the server's cost")
			}
		}

		// RT16: the latency budget must cover what the server can
		// deliver — the worst-case response where analysis ran, the
		// bare cost otherwise.
		if c.LatencyBudget > 0 && srv != nil {
			serve, analyzed := v.price.Serve(srv.Name())
			switch {
			case analyzed && serve > c.LatencyBudget:
				v.add("RT16", Error, subject,
					fmt.Sprintf("latency budget %v is below the server's worst-case response %v; the SLO is unmeetable by construction",
						c.LatencyBudget, serve),
					"raise the budget above the worst-case response, or raise the server's priority")
			case analyzed:
				v.add("RT16", Info, subject,
					fmt.Sprintf("latency budget %v covers the server's worst-case response %v",
						c.LatencyBudget, serve), "")
			case serve > c.LatencyBudget:
				v.add("RT16", Error, subject,
					fmt.Sprintf("latency budget %v is below the server's cost %v per release",
						c.LatencyBudget, serve),
					"raise the budget above the server's cost")
			}
		}

		// RT17 (architecture half): a blocking gate makes the client
		// wait for admission capacity — a real-time client's WCET
		// analysis cannot absorb that wait.
		if c.Policy == model.Block && cli != nil {
			if td, err := v.arch.EffectiveThreadDomain(cli); err == nil {
				switch td.Domain().Kind {
				case model.RealtimeThread, model.NoHeapRealtimeThread:
					v.add("RT17", Error, subject,
						fmt.Sprintf("block overload policy would stall the %s client domain %q at the admission gate; its timing analysis cannot absorb the wait",
							td.Domain().Kind, td.Name()),
						"use the shed or degrade policy; real-time senders must learn of overload immediately")
				}
			}
		}
	}
}

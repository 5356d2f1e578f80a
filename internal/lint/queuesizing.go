package lint

import (
	"fmt"
	"sort"
	"strings"

	"soleil/internal/model"
	"soleil/internal/validate"
)

// QueueSizing (SA10) propagates admitted message rates through the
// binding fan-in trees of the architecture and checks them against
// downstream capacity — RT16's per-binding capacity math applied to
// the composed system. Every rate and capacity comes from the pricing
// core (validate.Pricing): a binding admits the contract's maxRate,
// else its periodic client's release rate, else the rate propagated
// into the client from its own inbound bindings. Two findings:
//
//   - a server whose total inbound rate exceeds its processing
//     capacity (1/cost per release) is overloaded by construction —
//     each contract may fit individually while the fan-in sum does
//     not;
//   - an asynchronous buffer smaller than what arrives between two
//     releases of its server, ceil(interval × inflow) by the drain
//     rule (each release drains the whole buffer), overflows. RT13
//     judges the bindings an uncontracted periodic client feeds; this
//     half covers the rates RT13 cannot see, contracted and
//     propagated ones.
var QueueSizing = &ArchAnalyzer{
	Name: "queuesizing",
	Rule: "SA10",
	Doc: "propagates maxRate/burst through binding fan-in trees and flags servers whose " +
		"admitted inbound rate exceeds their processing capacity, and async buffers that " +
		"statically overflow",
	Run: runQueueSizing,
}

func runQueueSizing(p *ArchPass) error {
	facts := p.Facts
	pr := facts.Pricing()
	bindings := facts.Arch.Bindings()
	inbound := pr.Inbound()

	// Fan-in sum vs server capacity.
	servers := make([]string, 0, len(inbound))
	for s := range inbound {
		servers = append(servers, s)
	}
	sort.Strings(servers)
	for _, name := range servers {
		srv, _ := facts.Arch.Component(name) // a binding's server: Bind checked it exists
		capacity := validate.Capacity(srv)
		rate := inbound[name]
		if capacity <= 0 || rate <= capacity {
			continue // unknown cost: no static capacity to compare against
		}
		var feeds []string
		var flow []validate.FlowStep
		for _, b := range bindings {
			if r := pr.Rate(b); b.Server.Component == name && r > 0 {
				feeds = append(feeds, fmt.Sprintf("%s %.4g/s", b.String(), r))
				flow = append(flow, validate.FlowStep{
					Note: fmt.Sprintf("%s admits %.4g/s into %s", b.String(), r, name),
					Pos:  implAnchor(facts, b.Client.Component),
				})
			}
		}
		sort.Strings(feeds)
		p.Report(Finding{
			Pos:      anchorOf(facts, name),
			Severity: validate.Error,
			Subject:  name,
			Message: fmt.Sprintf("admitted inbound rate %.4g/s exceeds %s's processing capacity %.4g/s "+
				"(cost %v per release, utilization %.0f%%): the fan-in %s overloads the server even though "+
				"each binding may honour its own contract",
				rate, name, capacity, srv.Activation().Cost, 100*rate/capacity, strings.Join(feeds, " + ")),
			Suggestion: "lower the contracted rates, shed or degrade at the gates, or reduce the server's cost per release",
			Flow:       flow,
		})
	}

	// Async buffer vs what arrives between two draining releases.
	for _, b := range bindings {
		if b.Protocol != model.Asynchronous {
			continue
		}
		cli, _ := facts.Arch.Component(b.Client.Component)
		srv, _ := facts.Arch.Component(b.Server.Component)
		if (b.Contract == nil || b.Contract.MaxRate <= 0) && validate.ReleaseRate(cli) > 0 {
			continue // an uncontracted periodic client: RT13's finding
		}
		interval := validate.Interval(srv)
		inflow := pr.Rate(b)
		need := validate.Slots(interval, inflow)
		if need <= b.BufferSize {
			continue // also when the server drains on arrival (interval 0)
		}
		p.Report(Finding{
			Pos:      anchorOf(facts, b.Server.Component),
			Severity: validate.Error,
			Subject:  b.String(),
			Message: fmt.Sprintf("inflow %.4g/s queues up to %d messages between two releases of %s %v apart "+
				"(each release drains the buffer), so the %d-slot buffer overflows",
				inflow, need, b.Server.Component, interval, b.BufferSize),
			Suggestion: fmt.Sprintf("raise bufferSize to at least %d, lower the admitted rate, or shorten the server's activation interval", need),
		})
	}
	return nil
}

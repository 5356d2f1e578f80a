package validate

import (
	"strings"
	"testing"
	"time"

	"soleil/internal/fixture"
	"soleil/internal/model"
)

const ms = time.Millisecond

func TestMotivationExampleIsCompliant(t *testing.T) {
	a, err := fixture.MotivationExample()
	if err != nil {
		t.Fatal(err)
	}
	r := Validate(a)
	if !r.OK() {
		t.Fatalf("motivation example rejected:\n%v", r.Errors())
	}
}

// scaffold builds a minimal compliant architecture: one sporadic
// active in an RT ThreadDomain inside an immortal MemoryArea.
func scaffold(t *testing.T) (*model.Architecture, *model.Component, *model.Component, *model.Component) {
	t.Helper()
	a := model.NewArchitecture("t")
	act, err := a.NewActive("act", model.Activation{Kind: model.SporadicActivation})
	if err != nil {
		t.Fatal(err)
	}
	if err := act.SetContent("ActImpl"); err != nil {
		t.Fatal(err)
	}
	td, err := a.NewThreadDomain("td", model.DomainDesc{Kind: model.RealtimeThread, Priority: 20})
	if err != nil {
		t.Fatal(err)
	}
	imm, err := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(imm, td); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(td, act); err != nil {
		t.Fatal(err)
	}
	return a, act, td, imm
}

func hasError(r Report, rule, subjectFragment string) bool {
	for _, d := range r.ByRule(rule) {
		if d.Severity == Error && strings.Contains(d.Subject, subjectFragment) {
			return true
		}
	}
	return false
}

func TestScaffoldCompliant(t *testing.T) {
	a, _, _, _ := scaffold(t)
	if r := Validate(a); !r.OK() {
		t.Fatalf("scaffold rejected: %v", r.Errors())
	}
}

func TestRT01ActiveWithoutDomain(t *testing.T) {
	a, _, _, imm := scaffold(t)
	lonely, _ := a.NewActive("lonely", model.Activation{Kind: model.SporadicActivation})
	_ = lonely.SetContent("X")
	if err := a.AddChild(imm, lonely); err != nil {
		t.Fatal(err)
	}
	r := Validate(a)
	if !hasError(r, "RT01", "lonely") {
		t.Fatalf("missing RT01: %v", r.Diagnostics)
	}
}

func TestRT02NestedThreadDomains(t *testing.T) {
	a, _, td, _ := scaffold(t)
	td2, _ := a.NewThreadDomain("td2", model.DomainDesc{Kind: model.RealtimeThread, Priority: 21})
	if err := a.AddChild(td, td2); err != nil {
		t.Fatal(err)
	}
	if r := Validate(a); !hasError(r, "RT02", "td2") {
		t.Fatalf("missing RT02: %v", r.Diagnostics)
	}
}

func TestRT03NHRTInHeap(t *testing.T) {
	a := model.NewArchitecture("t")
	heap, _ := a.NewMemoryArea("heap", model.AreaDesc{Kind: model.HeapMemory})
	td, _ := a.NewThreadDomain("nhrtd", model.DomainDesc{Kind: model.NoHeapRealtimeThread, Priority: 30})
	act, _ := a.NewActive("act", model.Activation{Kind: model.SporadicActivation})
	_ = act.SetContent("X")
	if err := a.AddChild(heap, td); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(td, act); err != nil {
		t.Fatal(err)
	}
	r := Validate(a)
	if !hasError(r, "RT03", "nhrtd") {
		t.Fatalf("missing RT03 for domain: %v", r.Diagnostics)
	}
	if !hasError(r, "RT03", "act") {
		t.Fatalf("missing RT03 for member: %v", r.Diagnostics)
	}
}

func TestRT04UndeployedPrimitive(t *testing.T) {
	a, _, _, _ := scaffold(t)
	p, _ := a.NewPassive("floating")
	_ = p.SetContent("X")
	if r := Validate(a); !hasError(r, "RT04", "floating") {
		t.Fatalf("missing RT04: %v", r.Diagnostics)
	}
}

func TestRT05PassiveInThreadDomain(t *testing.T) {
	a, _, td, imm := scaffold(t)
	p, _ := a.NewPassive("p")
	_ = p.SetContent("X")
	if err := a.AddChild(td, p); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(imm, p); err != nil {
		t.Fatal(err)
	}
	if r := Validate(a); !hasError(r, "RT05", "td") {
		t.Fatalf("missing RT05: %v", r.Diagnostics)
	}
}

func TestRT06PriorityBands(t *testing.T) {
	a := model.NewArchitecture("t")
	imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	regHigh, _ := a.NewThreadDomain("regHigh", model.DomainDesc{Kind: model.RegularThread, Priority: 20})
	rtLow, _ := a.NewThreadDomain("rtLow", model.DomainDesc{Kind: model.RealtimeThread, Priority: 5})
	nhrtZero, _ := a.NewThreadDomain("nhrtZero", model.DomainDesc{Kind: model.NoHeapRealtimeThread})
	for _, td := range []*model.Component{regHigh, rtLow, nhrtZero} {
		if err := a.AddChild(imm, td); err != nil {
			t.Fatal(err)
		}
	}
	r := Validate(a)
	for _, name := range []string{"regHigh", "rtLow", "nhrtZero"} {
		if !hasError(r, "RT06", name) {
			t.Errorf("missing RT06 for %s: %v", name, r.Diagnostics)
		}
	}
}

// crossBindingFixture builds client+server actives in two areas with a
// binding using the given protocol/pattern.
func crossBindingFixture(t *testing.T, proto model.Protocol, buffer int, pattern string, serverScoped bool) *model.Architecture {
	t.Helper()
	a := model.NewArchitecture("t")
	imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	var srvArea *model.Component
	if serverScoped {
		srvArea, _ = a.NewMemoryArea("scope", model.AreaDesc{Kind: model.ScopedMemory, Size: 1024})
	} else {
		srvArea, _ = a.NewMemoryArea("heap", model.AreaDesc{Kind: model.HeapMemory})
	}
	tdc, _ := a.NewThreadDomain("tdc", model.DomainDesc{Kind: model.NoHeapRealtimeThread, Priority: 30})
	tds, _ := a.NewThreadDomain("tds", model.DomainDesc{Kind: model.RegularThread, Priority: 5})
	cli, _ := a.NewActive("cli", model.Activation{Kind: model.SporadicActivation})
	srv, _ := a.NewActive("srv", model.Activation{Kind: model.SporadicActivation})
	_ = cli.SetContent("C")
	_ = srv.SetContent("S")
	if err := cli.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "I"}); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddInterface(model.Interface{Name: "in", Role: model.ServerRole, Signature: "I"}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct{ p, c *model.Component }{
		{imm, tdc}, {tdc, cli}, {srvArea, tds}, {tds, srv},
	} {
		if err := a.AddChild(e.p, e.c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Bind(model.Binding{
		Client:   model.Endpoint{Component: "cli", Interface: "out"},
		Server:   model.Endpoint{Component: "srv", Interface: "in"},
		Protocol: proto, BufferSize: buffer, Pattern: pattern,
	}); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRT07MissingPattern(t *testing.T) {
	a := crossBindingFixture(t, model.Asynchronous, 8, "", false)
	r := Validate(a)
	if !hasError(r, "RT07", "cli.out") {
		t.Fatalf("missing RT07: %v", r.Diagnostics)
	}
	// The suggestion proposes deep-copy for an async crossing.
	found := false
	for _, d := range r.ByRule("RT07") {
		if strings.Contains(d.Suggestion, "deep-copy") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no deep-copy suggestion: %v", r.ByRule("RT07"))
	}
}

func TestRT07UnknownPattern(t *testing.T) {
	a := crossBindingFixture(t, model.Asynchronous, 8, "smoke", false)
	if r := Validate(a); !hasError(r, "RT07", "cli.out") {
		t.Fatalf("missing RT07: %v", r.Diagnostics)
	}
}

func TestRT07InapplicablePattern(t *testing.T) {
	// scope-enter on an async binding is inapplicable.
	a := crossBindingFixture(t, model.Asynchronous, 8, "scope-enter", true)
	if r := Validate(a); !hasError(r, "RT07", "cli.out") {
		t.Fatalf("missing RT07: %v", r.Diagnostics)
	}
}

func TestRT07GoodPattern(t *testing.T) {
	a := crossBindingFixture(t, model.Asynchronous, 8, "deep-copy", false)
	if r := Validate(a); len(r.ByRule("RT07")) != 0 {
		t.Fatalf("spurious RT07: %v", r.ByRule("RT07"))
	}
}

func TestRT08NHRTSyncIntoHeap(t *testing.T) {
	a := crossBindingFixture(t, model.Synchronous, 0, "deep-copy", false)
	r := Validate(a)
	if !hasError(r, "RT08", "cli.out") {
		t.Fatalf("missing RT08: %v", r.Diagnostics)
	}
	// The same reach implemented asynchronously is fine.
	a2 := crossBindingFixture(t, model.Asynchronous, 8, "deep-copy", false)
	if r := Validate(a2); len(r.ByRule("RT08")) != 0 {
		t.Fatalf("spurious RT08: %v", r.ByRule("RT08"))
	}
}

func TestRT09HeapInsideScope(t *testing.T) {
	a := model.NewArchitecture("t")
	scope, _ := a.NewMemoryArea("scope", model.AreaDesc{Kind: model.ScopedMemory, Size: 1024})
	heap, _ := a.NewMemoryArea("heap", model.AreaDesc{Kind: model.HeapMemory})
	if err := a.AddChild(scope, heap); err != nil {
		t.Fatal(err)
	}
	if r := Validate(a); !hasError(r, "RT09", "heap") {
		t.Fatalf("missing RT09: %v", r.Diagnostics)
	}
}

func TestRT10AsyncIntoPassive(t *testing.T) {
	a, act, _, imm := scaffold(t)
	if err := act.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "I"}); err != nil {
		t.Fatal(err)
	}
	p, _ := a.NewPassive("p")
	_ = p.SetContent("P")
	if err := p.AddInterface(model.Interface{Name: "in", Role: model.ServerRole, Signature: "I"}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(imm, p); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(model.Binding{
		Client:   model.Endpoint{Component: "act", Interface: "out"},
		Server:   model.Endpoint{Component: "p", Interface: "in"},
		Protocol: model.Asynchronous, BufferSize: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if r := Validate(a); !hasError(r, "RT10", "act.out") {
		t.Fatalf("missing RT10: %v", r.Diagnostics)
	}
}

// TestRT10WarnsOnlyForPeriodicServers: arrivals release sporadic and
// aperiodic servers, so only an asynchronous binding into a periodic
// server draws the RT10 warning.
func TestRT10WarnsOnlyForPeriodicServers(t *testing.T) {
	for _, c := range []struct {
		act  model.Activation
		warn bool
	}{
		{model.Activation{Kind: model.PeriodicActivation, Period: 10 * time.Millisecond}, true},
		{model.Activation{Kind: model.SporadicActivation}, false},
		{model.Activation{Kind: model.AperiodicActivation}, false},
	} {
		a, act, td, _ := scaffold(t)
		if err := act.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "I"}); err != nil {
			t.Fatal(err)
		}
		srv, _ := a.NewActive("srv", c.act)
		_ = srv.SetContent("Srv")
		if err := srv.AddInterface(model.Interface{Name: "in", Role: model.ServerRole, Signature: "I"}); err != nil {
			t.Fatal(err)
		}
		if err := a.AddChild(td, srv); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Bind(model.Binding{
			Client:   model.Endpoint{Component: "act", Interface: "out"},
			Server:   model.Endpoint{Component: "srv", Interface: "in"},
			Protocol: model.Asynchronous, BufferSize: 4,
		}); err != nil {
			t.Fatal(err)
		}
		if warned := len(Validate(a).ByRule("RT10")) > 0; warned != c.warn {
			t.Errorf("%v server: RT10 warned %v, want %v", c.act.Kind, warned, c.warn)
		}
	}
}

func TestRT11MissingContentIsWarning(t *testing.T) {
	a, _, td, imm := scaffold(t)
	bare, _ := a.NewActive("bare", model.Activation{Kind: model.SporadicActivation})
	td2, _ := a.NewThreadDomain("td2", model.DomainDesc{Kind: model.RealtimeThread, Priority: 19})
	if err := a.AddChild(imm, td2); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(td2, bare); err != nil {
		t.Fatal(err)
	}
	_ = td
	r := Validate(a)
	if !r.OK() {
		t.Fatalf("warnings must not fail validation: %v", r.Errors())
	}
	warned := false
	for _, d := range r.ByRule("RT11") {
		if d.Severity == Warning && d.Subject == "bare" {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("missing RT11 warning: %v", r.Diagnostics)
	}
}

func TestRT12Schedulability(t *testing.T) {
	mk := func(cost1, cost2 time.Duration) Report {
		a := model.NewArchitecture("t")
		imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
		td1, _ := a.NewThreadDomain("td1", model.DomainDesc{Kind: model.NoHeapRealtimeThread, Priority: 30})
		td2, _ := a.NewThreadDomain("td2", model.DomainDesc{Kind: model.NoHeapRealtimeThread, Priority: 25})
		c1, _ := a.NewActive("c1", model.Activation{Kind: model.PeriodicActivation, Period: 10 * ms, Cost: cost1})
		c2, _ := a.NewActive("c2", model.Activation{Kind: model.PeriodicActivation, Period: 20 * ms, Cost: cost2})
		_ = c1.SetContent("X")
		_ = c2.SetContent("Y")
		for _, e := range []struct{ p, c *model.Component }{{imm, td1}, {imm, td2}, {td1, c1}, {td2, c2}} {
			if err := a.AddChild(e.p, e.c); err != nil {
				t.Fatal(err)
			}
		}
		return Validate(a)
	}
	if r := mk(2*ms, 4*ms); !r.OK() {
		t.Fatalf("feasible set rejected: %v", r.Errors())
	} else if len(r.ByRule("RT12")) != 2 {
		t.Fatalf("expected RT12 info findings: %v", r.ByRule("RT12"))
	}
	if r := mk(8*ms, 15*ms); r.OK() {
		t.Fatal("overloaded set accepted")
	} else if !hasError(r, "RT12", "c2") {
		t.Fatalf("missing RT12: %v", r.Diagnostics)
	}
}

func TestApplySuggestedPatterns(t *testing.T) {
	a := crossBindingFixture(t, model.Asynchronous, 8, "", false)
	changed, err := ApplySuggestedPatterns(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || changed[0].Pattern != "deep-copy" {
		t.Fatalf("changed = %v", changed)
	}
	if r := Validate(a); !r.OK() {
		t.Fatalf("architecture still invalid after applying suggestions: %v", r.Errors())
	}
	// Idempotent.
	changed, err = ApplySuggestedPatterns(a)
	if err != nil || len(changed) != 0 {
		t.Fatalf("second apply = %v, %v", changed, err)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "RT01", Severity: Error, Subject: "x", Message: "m", Suggestion: "s"}
	got := d.String()
	for _, frag := range []string{"RT01", "error", "x", "m", "s"} {
		if !strings.Contains(got, frag) {
			t.Errorf("String() = %q missing %q", got, frag)
		}
	}
	if Info.String() != "info" || Warning.String() != "warning" {
		t.Error("severity strings")
	}
}

func TestRuleCatalogComplete(t *testing.T) {
	for i := 1; i <= 13; i++ {
		id := "RT" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		if _, ok := Rules[id]; !ok {
			t.Errorf("rule %s undocumented", id)
		}
	}
}

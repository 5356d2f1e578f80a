package validate

import (
	"testing"
	"time"

	"soleil/internal/model"
)

// rateFixture builds a periodic producer bound asynchronously to a
// server with the given activation.
func rateFixture(t *testing.T, producerPeriod time.Duration, serverAct model.Activation, buffer int) *model.Architecture {
	t.Helper()
	a := model.NewArchitecture("rates")
	cli, err := a.NewActive("cli", model.Activation{Kind: model.PeriodicActivation, Period: producerPeriod})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := a.NewActive("srv", serverAct)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.SetContent("C")
	_ = srv.SetContent("S")
	if err := cli.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "I"}); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddInterface(model.Interface{Name: "in", Role: model.ServerRole, Signature: "I"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(model.Binding{
		Client:   model.Endpoint{Component: "cli", Interface: "out"},
		Server:   model.Endpoint{Component: "srv", Interface: "in"},
		Protocol: model.Asynchronous, BufferSize: buffer,
	}); err != nil {
		t.Fatal(err)
	}
	td, _ := a.NewThreadDomain("td", model.DomainDesc{Kind: model.RealtimeThread, Priority: 20})
	imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	if err := a.AddChild(imm, td); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(td, cli); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(td, srv); err != nil {
		t.Fatal(err)
	}
	return a
}

func warningsFor(r Report, rule string) int {
	n := 0
	for _, d := range r.ByRule(rule) {
		if d.Severity == Warning {
			n++
		}
	}
	return n
}

func TestRT13SporadicMITSlowerThanProducer(t *testing.T) {
	// Each release drains the whole buffer, and releases come at most
	// one per 12ms MIT: a 5ms producer queues up to ceil(12/5) = 3
	// messages between them. A 2-slot buffer warns, 3 slots do not.
	a := rateFixture(t, 5*ms,
		model.Activation{Kind: model.SporadicActivation, Period: 12 * ms}, 2)
	r := Validate(a)
	if warningsFor(r, "RT13") != 1 {
		t.Fatalf("RT13 warnings = %d: %v", warningsFor(r, "RT13"), r.Diagnostics)
	}
	enough := rateFixture(t, 5*ms,
		model.Activation{Kind: model.SporadicActivation, Period: 12 * ms}, 3)
	if warningsFor(Validate(enough), "RT13") != 0 {
		t.Fatalf("spurious RT13 for a sufficient buffer: %v", Validate(enough).ByRule("RT13"))
	}
	// A compatible MIT raises nothing.
	a2 := rateFixture(t, 12*ms,
		model.Activation{Kind: model.SporadicActivation, Period: 5 * ms}, 10)
	if warningsFor(Validate(a2), "RT13") != 0 {
		t.Fatal("spurious RT13 for compatible rates")
	}
}

func TestRT13PeriodicServerBufferSizing(t *testing.T) {
	// 50ms server period / 5ms producer period = 10 messages per
	// drain; a 4-slot buffer warns, a 10-slot buffer does not.
	small := rateFixture(t, 5*ms,
		model.Activation{Kind: model.PeriodicActivation, Period: 50 * ms}, 4)
	r := Validate(small)
	if warningsFor(r, "RT13") != 1 {
		t.Fatalf("RT13 warnings = %d: %v", warningsFor(r, "RT13"), r.ByRule("RT13"))
	}
	big := rateFixture(t, 5*ms,
		model.Activation{Kind: model.PeriodicActivation, Period: 50 * ms}, 10)
	if warningsFor(Validate(big), "RT13") != 0 {
		t.Fatal("spurious RT13 for a sufficient buffer")
	}
}

func TestRT13IgnoresNonPeriodicProducers(t *testing.T) {
	a := model.NewArchitecture("rates")
	cli, _ := a.NewActive("cli", model.Activation{Kind: model.SporadicActivation})
	srv, _ := a.NewActive("srv", model.Activation{Kind: model.SporadicActivation, Period: 50 * ms})
	_ = cli.SetContent("C")
	_ = srv.SetContent("S")
	_ = cli.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "I"})
	_ = srv.AddInterface(model.Interface{Name: "in", Role: model.ServerRole, Signature: "I"})
	if _, err := a.Bind(model.Binding{
		Client:   model.Endpoint{Component: "cli", Interface: "out"},
		Server:   model.Endpoint{Component: "srv", Interface: "in"},
		Protocol: model.Asynchronous, BufferSize: 1,
	}); err != nil {
		t.Fatal(err)
	}
	td, _ := a.NewThreadDomain("td", model.DomainDesc{Kind: model.RealtimeThread, Priority: 20})
	imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	_ = a.AddChild(imm, td)
	_ = a.AddChild(td, cli)
	_ = a.AddChild(td, srv)
	if warningsFor(Validate(a), "RT13") != 0 {
		t.Fatal("RT13 fired for a sporadic producer")
	}
}

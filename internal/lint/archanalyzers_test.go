package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"soleil/internal/adl"
	"soleil/internal/lint"
	"soleil/internal/lint/linttest"
	"soleil/internal/validate"
)

func archCorpus(name string) (dir, arch string) {
	dir = corpus(name)
	return dir, filepath.Join(dir, "arch.xml")
}

func TestBindingCycle(t *testing.T) {
	dir, arch := archCorpus("bindcyclesrc")
	diags := linttest.RunArch(t, dir, lint.BindingCycle, arch, filepath.Join(dir, "deploy.xml"))
	if len(diags) != 2 {
		t.Errorf("expected the 2 corpus cycles, got %d: %v", len(diags), diags)
	}
	var spanning bool
	for _, d := range diags {
		if d.Rule != "SA05" {
			t.Errorf("bindingcycle produced foreign rule %s", d.Rule)
		}
		if d.Severity != validate.Error {
			t.Errorf("cycle %q is %v, want error", d.Subject, d.Severity)
		}
		if strings.Contains(d.Message, "spans deployment nodes") {
			spanning = true
		}
	}
	if !spanning {
		t.Error("no cycle was escalated for spanning deployment nodes")
	}
}

// TestBindingCycleNoDeploy: without a deployment descriptor the same
// cycles are found but nothing is escalated.
func TestBindingCycleNoDeploy(t *testing.T) {
	dir, archPath := archCorpus("bindcyclesrc")
	pkg, err := lint.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := adl.DecodeFile(archPath)
	if err != nil {
		t.Fatal(err)
	}
	facts, err := lint.BuildArchFacts(arch, nil, []*lint.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := lint.RunArchPasses(facts, []*lint.ArchAnalyzer{lint.BindingCycle})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if strings.Contains(d.Message, "spans deployment nodes") {
			t.Errorf("escalation without a deployment: %s", d.Message)
		}
	}
	if len(ds) != 2 {
		t.Errorf("expected 2 cycles without deployment, got %d: %v", len(ds), ds)
	}
}

func TestLockOrder(t *testing.T) {
	dir, arch := archCorpus("lockordersrc")
	diags := linttest.RunArch(t, dir, lint.LockOrder, arch, "")
	if len(diags) != 1 {
		t.Errorf("expected the 1 corpus inversion, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != "SA06" || d.Severity != validate.Error {
			t.Errorf("lockorder finding wrong shape: %+v", d)
		}
	}
}

func TestMembraneBypass(t *testing.T) {
	dir, arch := archCorpus("membranesrc")
	diags := linttest.RunArch(t, dir, lint.MembraneBypass, arch, "")
	if len(diags) != 5 {
		t.Errorf("expected the 5 corpus crossings, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != "SA07" || d.Severity != validate.Error {
			t.Errorf("membranebypass finding wrong shape: %+v", d)
		}
	}
}

func TestCostBound(t *testing.T) {
	dir, arch := archCorpus("costboundsrc")
	diags := linttest.RunArch(t, dir, lint.CostBound, arch, "")
	if len(diags) != 4 {
		t.Errorf("expected the 4 corpus findings, got %d: %v", len(diags), diags)
	}
	var overBudget bool
	for _, d := range diags {
		if d.Rule != "SA08" || d.Severity != validate.Error {
			t.Errorf("costbound finding wrong shape: %+v", d)
		}
		if strings.Contains(d.Message, "demands at least") {
			overBudget = true
			if !strings.Contains(d.Message, "utilization") {
				t.Errorf("over-budget finding cites no RT16 utilization math: %s", d.Message)
			}
		}
	}
	if !overBudget {
		t.Error("no finding compared the derived bound against the declared cost")
	}
}

func TestFlowLatency(t *testing.T) {
	dir, arch := archCorpus("flowlatencysrc")
	diags := linttest.RunArch(t, dir, lint.FlowLatency, arch, "")
	if len(diags) != 1 {
		t.Errorf("expected the 1 corpus budget breach, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != "SA09" || d.Severity != validate.Error {
			t.Errorf("flowlatency finding wrong shape: %+v", d)
		}
		if !strings.Contains(d.Message, "queue") {
			t.Errorf("finding does not break the path down by hop: %s", d.Message)
		}
		if len(d.Flow) == 0 {
			t.Errorf("finding carries no per-hop flow: %+v", d)
		}
	}
}

func TestQueueSizing(t *testing.T) {
	dir, arch := archCorpus("queuesizesrc")
	diags := linttest.RunArch(t, dir, lint.QueueSizing, arch, "")
	if len(diags) != 2 {
		t.Errorf("expected the 2 corpus findings, got %d: %v", len(diags), diags)
	}
	var fanIn, overflow bool
	for _, d := range diags {
		if d.Rule != "SA10" || d.Severity != validate.Error {
			t.Errorf("queuesizing finding wrong shape: %+v", d)
		}
		if strings.Contains(d.Message, "utilization") {
			fanIn = true
		}
		if strings.Contains(d.Message, "buffer overflows") {
			overflow = true
		}
	}
	if !fanIn || !overflow {
		t.Errorf("expected one fan-in and one overflow finding, got fanIn=%v overflow=%v", fanIn, overflow)
	}
}

func TestSpawnLeak(t *testing.T) {
	dir, arch := archCorpus("spawnleaksrc")
	diags := linttest.RunArch(t, dir, lint.SpawnLeak, arch, "")
	if len(diags) != 2 {
		t.Errorf("expected the 2 corpus leaks, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != "SA11" || d.Severity != validate.Error {
			t.Errorf("spawnleak finding wrong shape: %+v", d)
		}
	}
}

// TestArchClean: the clean fixture must come back empty from every
// whole-architecture pass.
func TestArchClean(t *testing.T) {
	dir, arch := archCorpus("archcleansrc")
	for _, a := range lint.AllArch() {
		if ds := linttest.RunArch(t, dir, a, arch, ""); len(ds) != 0 {
			t.Errorf("%s reported on the clean fixture: %v", a.Name, ds)
		}
	}
}

func TestArchByName(t *testing.T) {
	as, err := lint.ArchByName("costbound,bindingcycle")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "costbound" || as[1].Name != "bindingcycle" {
		t.Errorf("ArchByName selection wrong: %v", as)
	}
	if _, err := lint.ArchByName("nope"); err == nil {
		t.Error("ArchByName accepted an unknown analyzer")
	}
	if as, err := lint.ArchByName(""); err != nil || len(as) != 7 {
		t.Errorf("ArchByName(\"\") should return the full arch suite, got %v, %v", as, err)
	}
}

// TestKnownRulesCoverSuite keeps the hand-maintained KnownRules set in
// sync with the analyzers actually shipped (it cannot be derived at
// init time without a cycle).
func TestKnownRulesCoverSuite(t *testing.T) {
	known := lint.KnownRules()
	var rules []string
	for _, a := range lint.All() {
		rules = append(rules, a.Rule)
	}
	for _, a := range lint.AllArch() {
		rules = append(rules, a.Rule)
	}
	for _, r := range rules {
		if !known[r] {
			t.Errorf("rule %s is shipped but missing from KnownRules", r)
		}
	}
	if len(known) != len(rules)+1 { // +1 for SA00 itself
		t.Errorf("KnownRules has %d entries, suite ships %d rules (+SA00)", len(known), len(rules))
	}
}

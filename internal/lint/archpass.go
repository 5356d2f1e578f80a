package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"soleil/internal/adl"
	"soleil/internal/model"
	"soleil/internal/validate"
)

// An ArchAnalyzer is one whole-architecture pass: where an Analyzer
// sees one package, an ArchAnalyzer sees the fused ADL + deployment +
// implementation model (ArchFacts) and reasons about the composed
// system.
type ArchAnalyzer struct {
	Name string
	Rule string
	Doc  string
	Run  func(*ArchPass) error
}

// AllArch is the whole-architecture suite in rule order.
func AllArch() []*ArchAnalyzer {
	return []*ArchAnalyzer{BindingCycle, LockOrder, MembraneBypass, CostBound,
		FlowLatency, QueueSizing, SpawnLeak}
}

// ArchByName resolves a comma-separated arch-analyzer selection.
func ArchByName(names string) ([]*ArchAnalyzer, error) {
	if names == "" {
		return AllArch(), nil
	}
	byName := map[string]*ArchAnalyzer{}
	for _, a := range AllArch() {
		byName[a.Name] = a
	}
	var out []*ArchAnalyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown arch analyzer %q (have %s)", n, archNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func archNames() string {
	var names []string
	for _, a := range AllArch() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// An ArchPass carries the fused facts through one arch analyzer.
type ArchPass struct {
	Analyzer *ArchAnalyzer
	Facts    *ArchFacts

	findings       []Finding
	reportedCycles map[string]bool
}

// Report records a finding unless a //soleil:ignore directive at the
// finding's position suppresses the rule. Suppression is resolved
// through the per-package directive indexes, found by filename.
func (p *ArchPass) Report(f Finding) {
	if f.Rule == "" {
		f.Rule = p.Analyzer.Rule
	}
	if p.suppressed(f) {
		return
	}
	p.findings = append(p.findings, f)
}

// Reportf formats and records a finding.
func (p *ArchPass) Reportf(pos token.Pos, sev validate.Severity, subject, suggestion, format string, args ...any) {
	p.Report(Finding{
		Pos: pos, Severity: sev, Subject: subject,
		Suggestion: suggestion, Message: fmt.Sprintf(format, args...),
	})
}

func (p *ArchPass) suppressed(f Finding) bool {
	if p.Facts.Fset == nil {
		return false
	}
	var pos token.Position
	switch {
	case f.PosStr != "":
		pos = parsePosition(f.PosStr)
	case f.Pos.IsValid():
		pos = p.Facts.Fset.Position(f.Pos)
	default:
		return false
	}
	for _, pkg := range p.Facts.Pkgs {
		idx := p.Facts.suppIndex(pkg)
		if idx.suppressesPosition(pos, f.Rule) {
			return true
		}
	}
	return false
}

// parsePosition splits a rendered "file:line:col" string back into a
// position; line parsing walks colons from the right so Windows drive
// letters survive.
func parsePosition(s string) token.Position {
	rest := s
	var nums []int
	for len(nums) < 2 {
		i := strings.LastIndexByte(rest, ':')
		if i < 0 {
			break
		}
		n, err := strconv.Atoi(rest[i+1:])
		if err != nil {
			break
		}
		nums = append(nums, n)
		rest = rest[:i]
	}
	pos := token.Position{Filename: rest}
	switch len(nums) {
	case 1:
		pos.Line = nums[0]
	case 2:
		pos.Line = nums[1]
		pos.Column = nums[0]
	}
	return pos
}

// suppIndex returns (building on demand) the package's directive
// index. SA00 findings are collected by RunArchPasses.
func (f *ArchFacts) suppIndex(pkg *Package) *suppressionIndex {
	if idx, ok := f.supp[pkg]; ok {
		return idx
	}
	idx := buildSuppressionIndex(pkg.Fset, pkg.Files)
	f.supp[pkg] = idx
	return idx
}

// RunArchPasses applies the arch analyzers to the fused facts and
// returns the findings in the shared diagnostic form, sorted by
// position then rule. Malformed //soleil:ignore directives in any
// loaded package surface as SA00 — the same contract RunPackage
// keeps for the per-function suite — and directives that suppressed
// nothing across the whole run surface as SA00 Info.
func RunArchPasses(facts *ArchFacts, analyzers []*ArchAnalyzer) ([]validate.Diagnostic, error) {
	if analyzers == nil {
		analyzers = AllArch()
	}
	facts.EnsureEngine("", nil)
	var diags []validate.Diagnostic
	render := func(f Finding) validate.Diagnostic {
		d := validate.Diagnostic{
			Rule:       f.Rule,
			Severity:   f.Severity,
			Subject:    f.Subject,
			Message:    f.Message,
			Suggestion: f.Suggestion,
			Flow:       f.Flow,
		}
		switch {
		case f.PosStr != "":
			d.Pos = f.PosStr
		case f.Pos.IsValid() && facts.Fset != nil:
			d.Pos = facts.Fset.Position(f.Pos).String()
		}
		return d
	}
	for _, pkg := range facts.Pkgs {
		for _, f := range facts.suppIndex(pkg).bad {
			diags = append(diags, render(f))
		}
	}
	for _, a := range analyzers {
		pass := &ArchPass{Analyzer: a, Facts: facts}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
		for _, f := range pass.findings {
			diags = append(diags, render(f))
		}
	}
	ran := ranRules(nil, analyzers)
	for _, pkg := range facts.Pkgs {
		for _, f := range facts.suppIndex(pkg).unused(ran) {
			diags = append(diags, render(f))
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags, nil
}

// RunArch loads the packages named by the options, fuses them with
// the architecture (required) and deployment (optional) and runs the
// whole-architecture suite SA05–SA08. With a deployment descriptor
// the RT14/RT15/RT17 cross-node diagnostics ride along, exactly as
// they do for Run.
func RunArch(opts Options) ([]validate.Diagnostic, error) {
	if opts.ADL == "" {
		return nil, fmt.Errorf("lint: -arch needs -adl (the passes analyze the composed architecture)")
	}
	arch, err := adl.DecodeFile(opts.ADL)
	if err != nil {
		return nil, err
	}
	var dep *model.Deployment
	var diags []validate.Diagnostic
	if opts.Deploy != "" {
		if dep, err = adl.DecodeDeploymentFile(opts.Deploy); err != nil {
			return nil, err
		}
		report, err := validate.ValidateDeployment(arch, dep)
		if err != nil {
			return nil, err
		}
		diags = append(diags, report.Diagnostics...)
	}
	pkgs, err := Load(opts.Dir, opts.Patterns)
	if err != nil {
		return nil, err
	}
	facts, err := BuildArchFacts(arch, dep, pkgs)
	if err != nil {
		return nil, err
	}
	facts.EnsureEngine(opts.FactsDir, opts.Stats)
	facts.LinkPenalty = validate.LinkPenaltyFromBench(opts.Dir)
	ds, err := RunArchPasses(facts, opts.ArchAnalyzers)
	if err != nil {
		return nil, err
	}
	return append(diags, ds...), nil
}

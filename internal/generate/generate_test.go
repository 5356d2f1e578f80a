package generate

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"soleil/internal/adl"
	"soleil/internal/assembly"
	"soleil/internal/fixture"
	"soleil/internal/model"
)

func motivation(t *testing.T) *model.Architecture {
	t.Helper()
	arch, err := fixture.MotivationExample()
	if err != nil {
		t.Fatal(err)
	}
	return arch
}

func TestVarAndGoNames(t *testing.T) {
	cases := map[string][2]string{
		"ProductionLine": {"productionLine", "ProductionLine"},
		"reg1":           {"reg1", "Reg1"},
		"my-comp_x":      {"myCompX", "MyCompX"},
	}
	for in, want := range cases {
		if got := varName(in); got != want[0] {
			t.Errorf("varName(%q) = %q", in, got)
		}
		if got := goName(in); got != want[1] {
			t.Errorf("goName(%q) = %q", in, got)
		}
	}
}

func TestBuildPlanMotivation(t *testing.T) {
	p, err := buildPlan(motivation(t), assembly.Soleil, "main")
	if err != nil {
		t.Fatal(err)
	}
	if p.ImmortalSize != 600<<10 {
		t.Fatalf("immortal = %d", p.ImmortalSize)
	}
	if len(p.Scopes) != 1 || p.Scopes[0].Name != "cscope" {
		t.Fatalf("scopes = %+v", p.Scopes)
	}
	if len(p.Components) != 4 {
		t.Fatalf("components = %d", len(p.Components))
	}
	if len(p.Buffers) != 2 || len(p.Syncs) != 1 {
		t.Fatalf("bindings = %d buffers, %d syncs", len(p.Buffers), len(p.Syncs))
	}
	if p.Syncs[0].ScopeVar == "" {
		t.Fatal("console sync lost its scope")
	}
	if len(p.Threads) != 3 {
		t.Fatalf("threads = %d", len(p.Threads))
	}
	// Threads sorted by descending priority: PL(30), MS(25), Audit(5).
	if p.Threads[0].Name != fixture.ProductionLine || p.Threads[2].Name != fixture.Audit {
		t.Fatalf("thread order: %s, %s, %s", p.Threads[0].Name, p.Threads[1].Name, p.Threads[2].Name)
	}
	if len(p.ActivateRoots) != 1 || p.ActivateRoots[0] != "ProductionLine" {
		t.Fatalf("roots = %v", p.ActivateRoots)
	}
	// Producer before consumer: MonitoringSystem before Audit.
	if len(p.DeliverOrder) != 2 || p.DeliverOrder[0] != "MonitoringSystem" || p.DeliverOrder[1] != "Audit" {
		t.Fatalf("deliver order = %v", p.DeliverOrder)
	}
}

func TestBuildPlanRejectsInvalid(t *testing.T) {
	a := model.NewArchitecture("bad")
	if _, err := a.NewActive("lonely", model.Activation{Kind: model.SporadicActivation}); err != nil {
		t.Fatal(err)
	}
	if _, err := buildPlan(a, assembly.Soleil, "main"); err == nil {
		t.Fatal("invalid architecture planned")
	}
}

func TestGenerateFileSets(t *testing.T) {
	arch := motivation(t)
	cases := []struct {
		mode      assembly.Mode
		wantFiles int // with main
	}{
		{assembly.Soleil, 7},     // contents + 4 components + infrastructure + main
		{assembly.MergeAll, 7},   // same file count, merged content
		{assembly.UltraMerge, 1}, // everything merged into one file
	}
	for _, c := range cases {
		files, err := Generate(arch, Options{Mode: c.mode, Main: true})
		if err != nil {
			t.Fatalf("%v: %v", c.mode, err)
		}
		if len(files) != c.wantFiles {
			names := make([]string, len(files))
			for i, f := range files {
				names[i] = f.Name
			}
			t.Fatalf("%v: %d files %v, want %d", c.mode, len(files), names, c.wantFiles)
		}
		for _, f := range files {
			if !bytes.HasPrefix(f.Content, []byte(Header)) {
				t.Errorf("%v: %s lacks the generation header", c.mode, f.Name)
			}
		}
		report := CheckRequirements(files, c.mode)
		if !report.OK() {
			var sb strings.Builder
			_ = report.Render(&sb)
			t.Errorf("%v requirements not met:\n%s", c.mode, sb.String())
		}
	}
}

func TestGenerateModeDifferences(t *testing.T) {
	arch := motivation(t)
	soleil, err := Generate(arch, Options{Mode: assembly.Soleil})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Generate(arch, Options{Mode: assembly.MergeAll})
	if err != nil {
		t.Fatal(err)
	}
	ultra, err := Generate(arch, Options{Mode: assembly.UltraMerge})
	if err != nil {
		t.Fatal(err)
	}
	all := func(files []File) string {
		var sb strings.Builder
		for _, f := range files {
			sb.Write(f.Content)
		}
		return sb.String()
	}
	if !strings.Contains(all(soleil), "membrane.New(") {
		t.Error("SOLEIL output does not reify membranes")
	}
	if strings.Contains(all(merged), "membrane.New(") {
		t.Error("MERGE-ALL output reifies membranes")
	}
	if !strings.Contains(all(merged), "BindingController") {
		t.Error("MERGE-ALL output lost functional rebinding")
	}
	u := all(ultra)
	if strings.Contains(u, "BindingController") || strings.Contains(u, "sync.Mutex") {
		t.Error("ULTRA-MERGE output is not static")
	}
	if !strings.Contains(u, "invokeMonitoringSystem") {
		t.Error("ULTRA-MERGE output lacks static routes")
	}
	// ULTRA-MERGE is the most compact.
	if lu, lm := countLines(ultra), countLines(merged); lu >= lm {
		t.Errorf("ULTRA lines %d >= MERGE-ALL lines %d", lu, lm)
	}
}

func TestGenerateOptionsValidation(t *testing.T) {
	arch := motivation(t)
	if _, err := Generate(arch, Options{Mode: assembly.Mode(9)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := Generate(arch, Options{Mode: assembly.Soleil, Package: "pkg", Main: true}); err == nil {
		t.Fatal("main in non-main package accepted")
	}
}

func TestMergeFilesErrors(t *testing.T) {
	if _, err := MergeFiles(nil, "out.go", "main"); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := MergeFiles([]File{{Name: "x.go", Content: []byte("not go")}}, "out.go", "main"); err == nil {
		t.Fatal("unparsable file merged")
	}
	if _, err := MergeFiles([]File{{Name: "x.go", Content: []byte("package other\n")}}, "out.go", "main"); err == nil {
		t.Fatal("wrong package merged")
	}
}

// runGenerated generates the program of arch in mode, then runs it
// with each argument list in turn and returns the outputs.
func runGenerated(t *testing.T, arch *model.Architecture, mode assembly.Mode, runs ...[]string) []string {
	t.Helper()
	files, err := Generate(arch, Options{Mode: mode, Main: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("testdata", "gen_")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.RemoveAll(dir) })
	if err := WriteFiles(dir, files); err != nil {
		t.Fatal(err)
	}
	// The test runs in internal/generate; go run resolves the
	// generated package from the repo root.
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkg := "./" + filepath.ToSlash(filepath.Join("internal", "generate", dir))
	var outs []string
	for _, args := range runs {
		cmd := exec.Command("go", append([]string{"run", pkg}, args...)...)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go run (%v): %v\n%s", args, err, out)
		}
		outs = append(outs, string(out))
	}
	return outs
}

// TestGeneratedProgramsCompileAndRun is the generator's end-to-end
// check: the generated infrastructure for every mode must compile with
// the host toolchain and execute the motivation example's transaction
// flow, both synchronously and on the simulated scheduler.
func TestGeneratedProgramsCompileAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling generated programs is slow")
	}
	arch := motivation(t)
	for _, mode := range []assembly.Mode{assembly.Soleil, assembly.MergeAll, assembly.UltraMerge} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			outs := runGenerated(t, arch, mode, []string{"-iterations", "100"}, []string{"-sim", "95ms"})

			// Synchronous transactions: 100 iterations -> the line
			// produced 100, the monitor and audit each served 100.
			for _, want := range []string{
				"MonitoringSystem         invocations=100",
				"Audit                    invocations=100",
				"Console", // displayed on every invocation of the stub chain? see below
			} {
				if !strings.Contains(outs[0], want) {
					t.Errorf("sync output missing %q:\n%s", want, outs[0])
				}
			}

			// Scheduled simulation: 95ms of virtual time with a 10ms
			// production period -> 10 releases flow through the system.
			if !strings.Contains(outs[1], "MonitoringSystem         invocations=10") {
				t.Errorf("sim output unexpected:\n%s", outs[1])
			}
		})
	}
}

// TestGeneratedLoopDrainsEveryServerKind runs the factory example's
// generated program on the simulated scheduler with MonitoringSystem,
// the server of the production line's asynchronous binding, made
// aperiodic and then periodic at the line's 10ms period. The generated
// activation loop is the runtime's: an aperiodic server drains on
// every arrival, a periodic one at each period boundary, so in every
// mode all 10 messages of 95ms are served.
func TestGeneratedLoopDrainsEveryServerKind(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling generated programs is slow")
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "factory", "factory.xml"))
	if err != nil {
		t.Fatal(err)
	}
	const sporadic = `<ActiveComponent name="MonitoringSystem" type="sporadic">`
	for _, kind := range []string{`type="aperiodic"`, `type="periodic" periodicity="10ms"`} {
		xml := strings.Replace(string(src), sporadic, `<ActiveComponent name="MonitoringSystem" `+kind+`>`, 1)
		if xml == string(src) {
			t.Fatal("factory.xml no longer declares a sporadic MonitoringSystem")
		}
		arch, err := adl.DecodeString(xml)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []assembly.Mode{assembly.Soleil, assembly.MergeAll, assembly.UltraMerge} {
			t.Run(kind+"/"+mode.String(), func(t *testing.T) {
				out := runGenerated(t, arch, mode, []string{"-sim", "95ms"})[0]
				if !strings.Contains(out, "MonitoringSystem         invocations=10\n") {
					t.Errorf("sim output unexpected:\n%s", out)
				}
			})
		}
	}
}

package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soleil/internal/adl"
	"soleil/internal/lint"
)

// TestArchDiagnosticsGolden pins the exact text of every SA09 and SA10
// finding over the flowlatency and queuesizing corpora (both passes on
// both corpora), flow notes included, so a change to the binding
// pricing shows as a diff of testdata/archdiag.golden.
func TestArchDiagnosticsGolden(t *testing.T) {
	var sb strings.Builder
	for _, name := range []string{"flowlatencysrc", "queuesizesrc"} {
		dir, archPath := archCorpus(name)
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
		diags, err := lint.RunArchPasses(facts, []*lint.ArchAnalyzer{lint.FlowLatency, lint.QueueSizing})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			d.Pos = ""
			sb.WriteString(name + ": " + d.String() + "\n")
			for _, step := range d.Flow {
				sb.WriteString("    " + step.Note + "\n")
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "archdiag.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("findings differ from testdata/archdiag.golden; got:\n%s", got)
	}
}

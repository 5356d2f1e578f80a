package validate

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"soleil/internal/adl"
)

// TestDiagnosticsGolden pins the exact text of every diagnostic the
// validator emits over the whole fixture corpus (each rtXX.xml, and
// each rtXX.deploy.xml paired with its architecture), so a change to
// any rule's wording or arithmetic shows as a diff of
// testdata/diagnostics.golden.
func TestDiagnosticsGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.xml"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var sb strings.Builder
	for _, path := range paths {
		if strings.HasSuffix(path, ".deploy.xml") {
			continue
		}
		a, err := adl.DecodeFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		for _, d := range Validate(a).Diagnostics {
			sb.WriteString(name + ": " + d.String() + "\n")
		}
		dep := strings.TrimSuffix(path, ".xml") + ".deploy.xml"
		if _, err := os.Stat(dep); err != nil {
			continue
		}
		dd, err := adl.DecodeDeploymentFile(dep)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ValidateDeployment(a, dd)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range r.Diagnostics {
			sb.WriteString(filepath.Base(dep) + ": " + d.String() + "\n")
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "diagnostics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("diagnostics differ from testdata/diagnostics.golden; got:\n%s", got)
	}
}

package lint

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"soleil/internal/validate"
)

// TestLinkPenaltyFromBench pins how the flow-latency analyzer prices
// links from BENCH_cluster.json: the cluster-loopback row of the
// shared bench envelope ({panel, commit, goos, rows}), halved, or the
// default when the row or the file is unusable.
func TestLinkPenaltyFromBench(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want time.Duration
	}{
		{
			name: "envelope",
			doc: `{"panel":"d","commit":"abc1234","goos":"linux","rows":[
				{"scenario":"in-process","rttMedian":2000000},
				{"scenario":"cluster-loopback","rttMedian":300000}]}`,
			want: 150 * time.Microsecond,
		},
		{
			name: "missing-row",
			doc:  `{"panel":"d","rows":[{"scenario":"in-process","rttMedian":2000000}]}`,
			want: validate.DefaultLinkPenalty,
		},
		{
			name: "corrupt",
			doc:  `{nope`,
			want: validate.DefaultLinkPenalty,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "BENCH_cluster.json"), []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := validate.LinkPenaltyFromBench(dir); got != tc.want {
				t.Fatalf("LinkPenaltyFromBench = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestLinkPenaltySearchesParents verifies the file is found from a
// subdirectory, matching how the linter runs from package dirs.
func TestLinkPenaltySearchesParents(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "internal", "pkg")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	doc := `{"panel":"d","rows":[{"scenario":"cluster-loopback","rttMedian":600000}]}`
	if err := os.WriteFile(filepath.Join(root, "BENCH_cluster.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := validate.LinkPenaltyFromBench(sub), 300*time.Microsecond; got != want {
		t.Fatalf("LinkPenaltyFromBench from subdir = %v, want %v", got, want)
	}
}

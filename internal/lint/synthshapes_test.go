package lint_test

import (
	"fmt"
	"testing"

	"soleil/internal/lint"
	"soleil/internal/load"
	"soleil/internal/validate"
)

// TestSynthesizedShapesPriceClean keeps the load plane's synthesized
// architectures inside the model the validator and the pricing passes
// agree on: every shape, contracted and not, over several seeds, must
// validate and draw no SA09 (path latency) or SA10 (rate and buffer)
// finding.
func TestSynthesizedShapesPriceClean(t *testing.T) {
	for _, shape := range load.Shapes {
		for _, contracted := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/contracted=%v/seed=%d", shape, contracted, seed), func(t *testing.T) {
					scn, err := load.Synthesize(load.Spec{Shape: shape, Components: 24, Seed: seed, Contracted: contracted})
					if err != nil {
						t.Fatal(err)
					}
					if r := validate.Validate(scn.Arch); !r.OK() {
						t.Fatalf("fails validation: %v", r.Errors())
					}
					facts, err := lint.BuildArchFacts(scn.Arch, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					diags, err := lint.RunArchPasses(facts, []*lint.ArchAnalyzer{lint.FlowLatency, lint.QueueSizing})
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range diags {
						t.Errorf("%v", d)
					}
				})
			}
		}
	}
}

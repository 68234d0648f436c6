// Differential quality gate for the multilevel V-cycle: on the paper's five
// ISCAS85-class circuits, the coarsen/solve/uncoarsen pipeline must land
// within 10% of flat FLOW's cost. The V-cycle exists to make large netlists
// tractable; this test pins that the speed does not come out of solution
// quality at the scale the paper actually reports, and that every partition
// it serves still passes independent certification.
package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/verify"
)

func TestMultilevelWithinFlatFlowBound(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is minutes-long; run without -short")
	}
	const slack = 1.10
	for _, cs := range repro.ISCAS85Circuits {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			h := repro.GenerateCircuit(cs, 1)
			spec, err := repro.BinaryTreeSpec(h.TotalSize(), 4, repro.GeometricWeights(4, 2), 1.1)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 2, Seed: 1})
			if err != nil {
				t.Fatalf("flat FLOW: %v", err)
			}
			if rep := verify.Result(flat); !rep.OK() {
				t.Fatalf("flat FLOW failed certification: %v", rep.Err())
			}
			ml, _, err := repro.PipelineCtx(context.Background(), h, spec, repro.Pipeline{Seed: 1, Multilevel: &repro.Multilevel{}})
			if err != nil {
				t.Fatalf("multilevel: %v", err)
			}
			if rep := verify.Result(ml); !rep.OK() {
				t.Fatalf("multilevel failed certification: %v", rep.Err())
			}
			t.Logf("%s: flat=%.0f multilevel=%.0f ratio=%.3f", cs.Name, flat.Cost, ml.Cost, ml.Cost/flat.Cost)
			if ml.Cost > slack*flat.Cost {
				t.Errorf("multilevel cost %.0f exceeds %.2fx flat FLOW cost %.0f (ratio %.3f)",
					ml.Cost, slack, flat.Cost, ml.Cost/flat.Cost)
			}
		})
	}
}

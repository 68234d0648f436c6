// Differential quality gate for flow-based pairwise refinement: on the
// paper's five ISCAS85-class circuits, the V-cycle with the flow-refine
// stage must never cost more than the FM-only V-cycle (the stage only
// accepts batches that lower the exact hierarchical cost, so ≤ is a
// structural guarantee, not a tuning outcome) and must strictly improve a
// majority of the circuits — the stage has to earn its runtime. Every
// partition served by either pipeline still passes independent
// certification, and every batch the flow stage accepts is re-certified
// in-line through the verify hook.
package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/verify"
)

func TestFlowRefineNeverWorseThanFM(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is minutes-long; run without -short")
	}
	improved := 0
	for _, cs := range repro.ISCAS85Circuits {
		h := repro.GenerateCircuit(cs, 1)
		spec, err := repro.BinaryTreeSpec(h.TotalSize(), 4, repro.GeometricWeights(4, 2), 1.1)
		if err != nil {
			t.Fatal(err)
		}
		ml, _, err := repro.PipelineCtx(context.Background(), h, spec, repro.Pipeline{Seed: 1, Multilevel: &repro.Multilevel{}})
		if err != nil {
			t.Fatalf("%s: multilevel: %v", cs.Name, err)
		}
		if rep := verify.Result(ml); !rep.OK() {
			t.Fatalf("%s: FM-only multilevel failed certification: %v", cs.Name, rep.Err())
		}
		mlf, _, err := repro.PipelineCtx(context.Background(), h, spec, repro.Pipeline{
			Seed:       1,
			Multilevel: &repro.Multilevel{},
			FlowRefine: &repro.FlowRefineOptions{Certify: verify.Certifier()},
		})
		if err != nil {
			t.Fatalf("%s: multilevel+flowrefine: %v", cs.Name, err)
		}
		if rep := verify.Result(mlf); !rep.OK() {
			t.Fatalf("%s: flow-refined multilevel failed certification: %v", cs.Name, rep.Err())
		}
		t.Logf("%s: fm-only=%.0f flow-refined=%.0f ratio=%.4f", cs.Name, ml.Cost, mlf.Cost, mlf.Cost/ml.Cost)
		if mlf.Cost > ml.Cost*(1+1e-9) {
			t.Errorf("%s: flow-refined cost %.0f exceeds FM-only cost %.0f — the accept-only-improving stage regressed",
				cs.Name, mlf.Cost, ml.Cost)
		}
		if mlf.Cost < ml.Cost*(1-1e-12) {
			improved++
		}
	}
	if improved < 3 {
		t.Errorf("flow refinement strictly improved only %d of %d circuits; want >= 3",
			improved, len(repro.ISCAS85Circuits))
	}
}

// Facade-level fuzzing: arbitrary netlist text is pushed through the hMETIS
// reader and, when it parses, through the full solver pipelines exactly as a
// downstream user would drive them. Every result must pass the independent
// verifier (recomputed cost, feasibility, Lemma 1, anytime contract), and
// repeating a run with the same seed must reproduce the cost bit for bit.
package repro_test

import (
	"context"
	"strings"
	"testing"

	"repro"
	"repro/internal/hypergraph"
	"repro/internal/verify"
)

func FuzzSolvePipeline(f *testing.F) {
	f.Add("4 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n", int64(1))
	f.Add("2 4 1\n2 1 2\n3 3 4\n", int64(7))
	f.Add("3 5 11\n1 1 2\n2 2 3\n1 4 5\n1\n2\n1\n1\n3\n", int64(42))
	f.Add("% ring\n5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n", int64(3))
	// Regression: this header once made the reader preallocate ~19 TB.
	f.Add("0000600000000000 0", int64(-31))
	f.Fuzz(func(t *testing.T, netlist string, seed int64) {
		h, err := hypergraph.ReadFrom(strings.NewReader(netlist))
		if err != nil {
			return // reader rejection is FuzzReadFrom's territory
		}
		// Bound solver work: fuzzing explores parse space, not scale.
		if h.NumNodes() < 2 || h.NumNodes() > 64 || h.NumNets() > 128 || h.TotalSize() > 1<<20 {
			return
		}
		spec, err := repro.BinaryTreeSpec(h.TotalSize(), 2, repro.GeometricWeights(2, 2), 1.2)
		if err != nil {
			return // degenerate sizes; spec construction is tested elsewhere
		}

		gres, err := repro.GFMCtx(context.Background(), h, spec, repro.GFMOptions{Seed: seed})
		if err == nil {
			if rep := verify.Result(gres); !rep.OK() {
				t.Fatalf("GFM result escaped verification: %v\nnetlist: %q", rep.Err(), netlist)
			}
			again, err := repro.GFMCtx(context.Background(), h, spec, repro.GFMOptions{Seed: seed})
			if err != nil || again.Cost != gres.Cost {
				t.Fatalf("GFM not deterministic: %.17g then %.17g (err %v)", gres.Cost, again.Cost, err)
			}
		}

		fres, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 1, Seed: seed})
		if err == nil {
			if rep := verify.Result(fres); !rep.OK() {
				t.Fatalf("FLOW result escaped verification: %v\nnetlist: %q", rep.Err(), netlist)
			}
			again, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 1, Seed: seed})
			if err != nil || again.Cost != fres.Cost {
				t.Fatalf("FLOW not deterministic: %.17g then %.17g (err %v)", fres.Cost, again.Cost, err)
			}
		}

		// The V-cycle route: a tiny CoarsenTarget forces real coarsening and
		// uncoarsening even on fuzz-sized instances, so contraction, the
		// coarse solve, projection, and boundary refinement all run.
		mopt := repro.Pipeline{Seed: seed, Multilevel: &repro.Multilevel{CoarsenTarget: 8}}
		mres, _, err := repro.PipelineCtx(context.Background(), h, spec, mopt)
		if err == nil {
			if rep := verify.Result(mres); !rep.OK() {
				t.Fatalf("multilevel result escaped verification: %v\nnetlist: %q", rep.Err(), netlist)
			}
			again, _, err := repro.PipelineCtx(context.Background(), h, spec, mopt)
			if err != nil || again.Cost != mres.Cost {
				t.Fatalf("multilevel not deterministic: %.17g then %.17g (err %v)", mres.Cost, again.Cost, err)
			}
		}

		// The flow-refined V-cycle route: the pairwise min-cut stage runs on
		// the finest level with every accepted batch re-certified in-line,
		// so corridor extraction, the Lawler expansion, and the batch applier
		// all see fuzz-shaped inputs. Refinement is monotone, so when both
		// routes succeed the refined cost may never exceed the plain one.
		fopt := mopt
		fopt.FlowRefine = &repro.FlowRefineOptions{Certify: verify.Certifier()}
		xres, _, err := repro.PipelineCtx(context.Background(), h, spec, fopt)
		if err == nil {
			if rep := verify.Result(xres); !rep.OK() {
				t.Fatalf("flow-refined result escaped verification: %v\nnetlist: %q", rep.Err(), netlist)
			}
			again, _, err := repro.PipelineCtx(context.Background(), h, spec, fopt)
			if err != nil || again.Cost != xres.Cost {
				t.Fatalf("flow-refined multilevel not deterministic: %.17g then %.17g (err %v)", xres.Cost, again.Cost, err)
			}
			if mres != nil && xres.Cost > mres.Cost+1e-9 {
				t.Fatalf("flow refinement regressed cost: %.17g > %.17g\nnetlist: %q", xres.Cost, mres.Cost, netlist)
			}
		}
	})
}

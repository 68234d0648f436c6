// Integration tests over the public facade: full pipelines (generate →
// partition → validate → refine), cross-algorithm invariants, and the
// worked-example guarantees, exercising the library exactly as a downstream
// user would.
package repro_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro"
)

func smallCircuit(t testing.TB) *repro.Hypergraph {
	t.Helper()
	cs := repro.CircuitSpec{Name: "tiny", Gates: 200, PIs: 16, POs: 8}
	return repro.GenerateCircuit(cs, 3)
}

func TestEndToEndFlowPipeline(t *testing.T) {
	h := smallCircuit(t)
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 3, repro.GeometricWeights(3, 2), 1.15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 {
		t.Fatalf("cost = %g", res.Cost)
	}
	if math.Abs(res.Cost-res.Partition.Cost()) > 1e-9 {
		t.Fatal("reported cost disagrees with partition cost")
	}
	// Refinement must not worsen and must keep validity.
	before := res.Cost
	after, improvement := repro.RefineCtx(context.Background(), res.Partition, repro.RefineOptions{})
	if after > before+1e-9 || improvement < 0 {
		t.Fatalf("refinement worsened: %g -> %g", before, after)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllAlgorithmsAgreeOnValidity(t *testing.T) {
	h := smallCircuit(t)
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 3, repro.GeometricWeights(3, 2), 1.15)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rfm, err := repro.RFMCtx(context.Background(), h, spec, repro.RFMOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	gfm, err := repro.GFMCtx(context.Background(), h, spec, repro.GFMOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*repro.Result{"FLOW": flow, "RFM": rfm, "GFM": gfm} {
		if err := res.Partition.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Lemma 1 holds for every produced partition.
		m := repro.MetricFromPartition(res.Partition)
		if bad := repro.CheckSpreadingMetric(m, spec); bad != nil {
			t.Fatalf("%s: induced metric infeasible: %v", name, bad)
		}
		if math.Abs(m.Value()-res.Cost) > 1e-6 {
			t.Fatalf("%s: metric value %g != cost %g", name, m.Value(), res.Cost)
		}
	}
}

func TestFigure2EndToEnd(t *testing.T) {
	h, spec, _ := repro.Figure2()
	// The exact LP bound is tight at 20 on the worked example.
	lb, err := repro.ExactLowerBoundCtx(context.Background(), h, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !lb.Converged || math.Abs(lb.Value-20) > 1e-6 {
		t.Fatalf("LP bound = %g (converged=%v), want tight 20", lb.Value, lb.Converged)
	}
	// FLOW reaches the certified optimum.
	res, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 20 {
		t.Fatalf("FLOW cost = %g, want the certified optimum 20", res.Cost)
	}
}

func TestLowerBoundCertifiesAllAlgorithms(t *testing.T) {
	// On a structured instance, every algorithm's cost is bounded below by
	// the LP (Lemma 2) and above by the trivial all-cut bound.
	b := repro.NewNetlistBuilder()
	for i := 0; i < 12; i++ {
		b.AddNode("", 1)
	}
	for blk := 0; blk < 3; blk++ {
		base := repro.NodeID(blk * 4)
		for i := repro.NodeID(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddNet("", 1, base+i, base+j)
			}
		}
	}
	b.AddNet("", 1, 0, 4)
	b.AddNet("", 1, 4, 8)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := repro.Spec{Capacity: []int64{4, 8}, Weight: []float64{1, 2}, Branch: []int{2, 2}}
	lb, err := repro.ExactLowerBoundCtx(context.Background(), h, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < lb.Value-1e-6 {
		t.Fatalf("FLOW cost %g below LP bound %g", res.Cost, lb.Value)
	}
	opt, optCost, err := repro.BruteForce(h, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	if lb.Converged && lb.Value > optCost+1e-6 {
		t.Fatalf("LP bound %g above optimum %g", lb.Value, optCost)
	}
	if res.Cost < optCost-1e-9 {
		t.Fatalf("FLOW %g beats brute-force optimum %g", res.Cost, optCost)
	}
}

func TestNetlistFileRoundTripThroughFacade(t *testing.T) {
	h := smallCircuit(t)
	path := filepath.Join(t.TempDir(), "c.net")
	if err := h.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := repro.ReadNetlist(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != h.NumNodes() || got.NumNets() != h.NumNets() || got.NumPins() != h.NumPins() {
		t.Fatal("round trip changed the netlist shape")
	}
	st := repro.ComputeNetlistStats(got)
	if st.Nodes != h.NumNodes() {
		t.Fatalf("stats nodes = %d", st.Nodes)
	}
}

func TestISCAS85CatalogComplete(t *testing.T) {
	want := []string{"c1355", "c2670", "c3540", "c6288", "c7552"}
	if len(repro.ISCAS85Circuits) != len(want) {
		t.Fatalf("catalog size %d", len(repro.ISCAS85Circuits))
	}
	for i, name := range want {
		if repro.ISCAS85Circuits[i].Name != name {
			t.Fatalf("catalog[%d] = %s, want %s", i, repro.ISCAS85Circuits[i].Name, name)
		}
		if _, err := repro.CircuitByName(name); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPolishedCutsAblationImprovesOrMatches(t *testing.T) {
	h := smallCircuit(t)
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 3, repro.GeometricWeights(3, 2), 1.15)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	polished, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{
		Iterations: 2, Seed: 4, Build: repro.BuildOptions{PolishCuts: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := polished.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	// Polish applies FM to every carve: it should essentially never lose by
	// much; allow slack for the different random trajectories.
	if polished.Cost > plain.Cost*1.25 {
		t.Fatalf("polished %g much worse than plain %g", polished.Cost, plain.Cost)
	}
}

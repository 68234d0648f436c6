package htp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
)

// hyperClusters builds clusters joined by multi-pin nets (cardinality up to
// 6), exercising the hypergraph extension of Algorithms 2 and 3 that the
// paper claims is straightforward.
func hyperClusters(tb testing.TB, rng *rand.Rand) *hypergraph.Hypergraph {
	tb.Helper()
	b := hypergraph.NewBuilder()
	const clusters, per = 4, 6
	b.AddUnitNodes(clusters * per)
	for c := 0; c < clusters; c++ {
		base := c * per
		// Dense multi-pin intra-cluster nets.
		for k := 0; k < 10; k++ {
			card := 3 + rng.Intn(3)
			perm := rng.Perm(per)[:card]
			pins := make([]hypergraph.NodeID, card)
			for i, p := range perm {
				pins[i] = hypergraph.NodeID(base + p)
			}
			b.AddNet("", 1, pins...)
		}
	}
	// One wide net per cluster pair boundary.
	for c := 0; c < clusters; c++ {
		n := (c + 1) % clusters
		b.AddNet("", 1,
			hypergraph.NodeID(c*per), hypergraph.NodeID(c*per+1), hypergraph.NodeID(n*per))
	}
	return b.MustBuild()
}

func TestFlowOnMultiPinNets(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	h := hyperClusters(t, rng)
	spec := binarySpec(t, h, 2)
	res, err := FlowCtx(context.Background(), h, spec, FlowOptions{Iterations: 3, Seed: 89})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	// Cluster recovery: no intra-cluster multi-pin net should span blocks
	// at level 1 if the four clusters map to the four leaves (allow some
	// slack: the bound below is what a clean recovery costs at most).
	if res.Cost > 60 {
		t.Fatalf("cost = %g, structure not recovered", res.Cost)
	}
}

func TestBaselinesOnMultiPinNets(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	h := hyperClusters(t, rng)
	spec := binarySpec(t, h, 2)
	if res, err := RFMCtx(context.Background(), h, spec, RFMOptions{Seed: 3}); err != nil || res.Partition.Validate() != nil {
		t.Fatalf("RFM: %v", err)
	}
	if res, err := GFMCtx(context.Background(), h, spec, GFMOptions{Seed: 3}); err != nil || res.Partition.Validate() != nil {
		t.Fatalf("GFM: %v", err)
	}
}

// TestAdaptiveLBGuaranteesBranchBound: with adaptive LB the builder never
// exceeds K_l even under adversarial metrics; the fixed-LB literal variant
// may (that is exactly why the default recomputes).
func TestAdaptiveLBGuaranteesBranchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(20)
		b := hypergraph.NewBuilder()
		b.AddUnitNodes(n)
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddNet("", 1, hypergraph.NodeID(u), hypergraph.NodeID(v))
			}
		}
		h := b.MustBuild()
		spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 3, hierarchy.GeometricWeights(3, 2), 1.3)
		if err != nil {
			t.Fatal(err)
		}
		d := make([]float64, h.NumNets())
		for e := range d {
			d[e] = rng.Float64() * 10 // adversarial noise metric
		}
		p, err := BuildCtx(context.Background(), h, spec, d, BuildOptions{Rng: rng})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestFlowCostMatchesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	h := hyperClusters(t, rng)
	spec := binarySpec(t, h, 2)
	res, err := FlowCtx(context.Background(), h, spec, FlowOptions{Iterations: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != res.Partition.Cost() {
		t.Fatalf("reported %g, partition %g", res.Cost, res.Partition.Cost())
	}
}

func TestPolishedBuildStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	h := hyperClusters(t, rng)
	spec := binarySpec(t, h, 2)
	res, err := FlowCtx(context.Background(), h, spec, FlowOptions{
		Iterations: 2, Seed: 7, Build: BuildOptions{PolishCuts: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

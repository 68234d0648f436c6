package inject

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/metric"
)

func clusteredGraph(t *testing.T, rng *rand.Rand, clusters, per int) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder()
	n := clusters * per
	b.AddUnitNodes(n)
	// dense inside clusters, sparse between
	for c := 0; c < clusters; c++ {
		base := c * per
		for i := 0; i < per; i++ {
			for j := i + 1; j < per; j++ {
				if rng.Float64() < 0.8 {
					b.AddNet("", 1, hypergraph.NodeID(base+i), hypergraph.NodeID(base+j))
				}
			}
		}
	}
	for c := 0; c+1 < clusters; c++ {
		b.AddNet("", 1, hypergraph.NodeID(c*per), hypergraph.NodeID((c+1)*per))
	}
	return b.MustBuild()
}

func specFor(h *hypergraph.Hypergraph, height int) hierarchy.Spec {
	s, err := hierarchy.BinaryTreeSpec(h.TotalSize(), height, hierarchy.GeometricWeights(height, 2), 1.2)
	if err != nil {
		panic(err)
	}
	return s
}

func TestComputeMetricConvergesAndIsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	h := clusteredGraph(t, rng, 4, 4)
	spec := specFor(h, 2)
	m, st, err := ComputeMetricCtx(context.Background(), h, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %+v", st)
	}
	if st.Injections == 0 {
		t.Fatal("no injections happened; the zero metric cannot be feasible here")
	}
	if bad := metric.Check(m, spec); bad != nil {
		t.Fatalf("resulting metric infeasible: %v", bad)
	}
	if m.Value() <= 0 {
		t.Fatal("metric value should be positive")
	}
}

func TestComputeMetricDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	h := clusteredGraph(t, rng, 3, 4)
	spec := specFor(h, 2)
	m1, _, err := ComputeMetricCtx(context.Background(), h, spec, Options{Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := ComputeMetricCtx(context.Background(), h, spec, Options{Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	for e := range m1.D {
		if m1.D[e] != m2.D[e] {
			t.Fatalf("metrics diverge at net %d: %g vs %g", e, m1.D[e], m2.D[e])
		}
	}
	m3, _, err := ComputeMetricCtx(context.Background(), h, spec, Options{Rng: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for e := range m1.D {
		if m1.D[e] != m3.D[e] {
			same = false
			break
		}
	}
	if same {
		t.Log("different seeds produced identical metrics (possible but unusual)")
	}
}

func TestComputeMetricRejectsOversizedNode(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddNode("big", 10)
	b.AddNode("", 1)
	b.AddNet("", 1, 0, 1)
	h := b.MustBuild()
	spec := hierarchy.Spec{Capacity: []int64{4, 16}, Weight: []float64{1, 1}, Branch: []int{2, 2}}
	if _, _, err := ComputeMetricCtx(context.Background(), h, spec, Options{}); err == nil {
		t.Fatal("oversized node accepted")
	}
}

func TestComputeMetricRejectsBadSpec(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(2)
	b.AddNet("", 1, 0, 1)
	h := b.MustBuild()
	if _, _, err := ComputeMetricCtx(context.Background(), h, hierarchy.Spec{}, Options{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestTrivialInstanceNeedsNoInjection(t *testing.T) {
	// Everything fits in one leaf: g == 0 everywhere, zero injections.
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(3)
	b.AddNet("", 1, 0, 1)
	b.AddNet("", 1, 1, 2)
	h := b.MustBuild()
	spec := hierarchy.Spec{Capacity: []int64{10}, Weight: []float64{1}, Branch: []int{2}}
	m, st, err := ComputeMetricCtx(context.Background(), h, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Injections != 0 {
		t.Fatalf("expected no injections, got %d", st.Injections)
	}
	// Lengths stay at their epsilon initialization.
	for e := range m.D {
		if m.D[e] > 1e-3 {
			t.Fatalf("net %d length %g after no injections", e, m.D[e])
		}
	}
}

func TestZeroCapacityNetIsFreeToCut(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(4)
	b.AddNet("free", 0, 0, 1)
	b.AddNet("", 1, 1, 2)
	b.AddNet("", 1, 2, 3)
	h := b.MustBuild()
	spec := hierarchy.Spec{Capacity: []int64{1, 4}, Weight: []float64{1, 1}, Branch: []int{2, 4}}
	m, st, err := ComputeMetricCtx(context.Background(), h, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("did not converge")
	}
	// The free net must be stretched (the LP can lengthen it at zero cost)
	// and must contribute nothing to the objective.
	if m.D[0] <= m.D[1] {
		t.Fatalf("free net length %g not above paid net %g", m.D[0], m.D[1])
	}
	var paid float64
	for e := 1; e < h.NumNets(); e++ {
		paid += h.NetCapacity(hypergraph.NetID(e)) * m.D[e]
	}
	if math.Abs(m.Value()-paid) > 1e-9 {
		t.Fatalf("free net contributes to Value: %g vs %g", m.Value(), paid)
	}
}

// TestBottleneckNetsGetLongest verifies the qualitative promise of the
// approach: nets bridging clusters saturate first and end up longer than
// intra-cluster nets.
func TestBottleneckNetsGetLongest(t *testing.T) {
	// Two K5 cliques joined by one bridge net.
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(10)
	var bridge hypergraph.NetID
	for c := 0; c < 2; c++ {
		base := c * 5
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddNet("", 1, hypergraph.NodeID(base+i), hypergraph.NodeID(base+j))
			}
		}
	}
	bridge = b.AddNet("bridge", 1, 0, 5)
	h := b.MustBuild()
	spec := hierarchy.Spec{Capacity: []int64{5, 10}, Weight: []float64{1, 2}, Branch: []int{2, 2}}
	m, st, err := ComputeMetricCtx(context.Background(), h, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("did not converge")
	}
	var avgIntra float64
	for e := 0; e < h.NumNets()-1; e++ {
		avgIntra += m.D[e]
	}
	avgIntra /= float64(h.NumNets() - 1)
	if m.D[bridge] <= avgIntra {
		t.Fatalf("bridge length %g not above intra-cluster average %g", m.D[bridge], avgIntra)
	}
}

func TestStatsMaxFlowPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	h := clusteredGraph(t, rng, 3, 3)
	spec := specFor(h, 2)
	_, st, err := ComputeMetricCtx(context.Background(), h, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxFlow <= 0 {
		t.Fatalf("MaxFlow = %g", st.MaxFlow)
	}
	if st.Rounds <= 0 {
		t.Fatalf("Rounds = %d", st.Rounds)
	}
}

func TestNonUnitSizesConverge(t *testing.T) {
	b := hypergraph.NewBuilder()
	sizes := []int64{3, 1, 2, 2, 1, 3}
	for _, s := range sizes {
		b.AddNode("", s)
	}
	for i := 0; i+1 < len(sizes); i++ {
		b.AddNet("", 1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	b.AddNet("", 1, 0, 5)
	h := b.MustBuild()
	spec := hierarchy.Spec{Capacity: []int64{4, 12}, Weight: []float64{1, 2}, Branch: []int{2, 2}}
	m, st, err := ComputeMetricCtx(context.Background(), h, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("did not converge with non-unit sizes")
	}
	if bad := metric.Check(m, spec); bad != nil {
		t.Fatalf("metric infeasible: %v", bad)
	}
}

func TestMetricValueAboveInducedLowerEnvelope(t *testing.T) {
	// A feasible flow metric's value is at least the LP optimum; sanity-check
	// it is in a plausible range: positive and below the all-cut upper bound.
	rng := rand.New(rand.NewSource(83))
	h := clusteredGraph(t, rng, 4, 4)
	spec := specFor(h, 2)
	m, _, err := ComputeMetricCtx(context.Background(), h, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Value() <= 0 || math.IsInf(m.Value(), 1) || math.IsNaN(m.Value()) {
		t.Fatalf("metric value = %g", m.Value())
	}
}

func BenchmarkComputeMetric(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hb := hypergraph.NewBuilder()
	const n = 128
	hb.AddUnitNodes(n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j != i {
				hb.AddNet("", 1, hypergraph.NodeID(i), hypergraph.NodeID(j))
			}
		}
	}
	h := hb.MustBuild()
	spec, _ := hierarchy.BinaryTreeSpec(h.TotalSize(), 3, hierarchy.GeometricWeights(3, 2), 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ComputeMetricCtx(context.Background(), h, spec, Options{Rng: rand.New(rand.NewSource(int64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}

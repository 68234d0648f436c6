package fm

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
)

// descentCase is a two-level descent: a random fine graph, its pairwise
// contraction, and a scattered partition of the coarse graph projected onto
// the fine one, so both levels have a boundary to refine.
func descentCase(t *testing.T, seed int64) (coarse, fine *hierarchy.Partition) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 160
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(n)
	for e := 0; e < 2*n; e++ {
		u := rng.Intn(n)
		pins := []hypergraph.NodeID{hypergraph.NodeID(u)}
		for _, d := range rng.Perm(8)[:1+rng.Intn(3)] {
			pins = append(pins, hypergraph.NodeID((u+1+d)%n))
		}
		b.AddNet("", float64(1+rng.Intn(4))/2, pins...)
	}
	h := b.MustBuild()
	clusterOf := make([]int, n)
	for v := range clusterOf {
		clusterOf[v] = v / 2
	}
	ch, err := h.ContractDedup(clusterOf, n/2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 3, hierarchy.GeometricWeights(3, 2), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	tr := hierarchy.NewTree(spec.TopLevel(h.TotalSize()))
	var leaves []int
	var grow func(q int)
	grow = func(q int) {
		if tr.Level(q) == 0 {
			leaves = append(leaves, q)
			return
		}
		for i := 0; i < spec.Branch[tr.Level(q)-1]; i++ {
			grow(tr.AddChild(q))
		}
	}
	grow(tr.Root())
	coarse = hierarchy.NewPartition(ch, spec, tr)
	for c := 0; c < ch.NumNodes(); c++ {
		coarse.Assign(hypergraph.NodeID(c), leaves[c%len(leaves)])
	}
	fine = hierarchy.NewPartition(h, spec, tr)
	for v := range clusterOf {
		fine.Assign(hypergraph.NodeID(v), int(coarse.LeafOf[clusterOf[v]]))
	}
	return coarse, fine
}

// TestBoundaryRefinerReuseMatchesFresh refines both levels of a descent
// with one refiner reserved for the fine graph, as Uncoarsen does, and
// with a fresh refiner per level: every assignment and cost must agree
// bit for bit.
func TestBoundaryRefinerReuseMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		c1, f1 := descentCase(t, seed)
		c2, f2 := descentCase(t, seed)
		var reused BoundaryRefiner
		reused.Reserve(f1.H, f1.Tree, f1.Spec)
		for _, lv := range [][2]*hierarchy.Partition{{c1, c2}, {f1, f2}} {
			opt := func() BoundaryOptions { return BoundaryOptions{Rng: rand.New(rand.NewSource(seed))} }
			got, _ := reused.RefineCtx(context.Background(), lv[0], opt())
			want, _ := new(BoundaryRefiner).RefineCtx(context.Background(), lv[1], opt())
			if math.Float64bits(got) != math.Float64bits(want) || !slices.Equal(lv[0].LeafOf, lv[1].LeafOf) {
				t.Fatalf("seed %d, %d nodes: reused refiner cost %v, fresh %v (assignments equal: %v)",
					seed, lv[0].H.NumNodes(), got, want, slices.Equal(lv[0].LeafOf, lv[1].LeafOf))
			}
		}
	}
}

// TestBoundaryRefinerWarmLevelAllocatesNothing pins the reuse: after a
// refiner reserved for the fine graph has refined the coarse level, the
// fine level's refinement allocates nothing, the first time and on every
// repeat.
func TestBoundaryRefinerWarmLevelAllocatesNothing(t *testing.T) {
	coarse, fine := descentCase(t, 3)
	start := slices.Clone(fine.LeafOf)
	var r BoundaryRefiner
	r.Reserve(fine.H, fine.Tree, fine.Spec)
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	r.RefineCtx(ctx, coarse, BoundaryOptions{Rng: rng})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.RefineCtx(ctx, fine, BoundaryOptions{Rng: rng})
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Fatalf("the first fine level after Reserve allocated %d times", n)
	}
	moved := false
	allocs := testing.AllocsPerRun(10, func() {
		copy(fine.LeafOf, start)
		if _, gain := r.RefineCtx(ctx, fine, BoundaryOptions{Rng: rng}); gain > 0 {
			moved = true
		}
	})
	if !moved {
		t.Fatal("the fine level made no move; the case does not exercise the worklists")
	}
	if allocs != 0 {
		t.Fatalf("refining a level through warm scratch allocated %v times", allocs)
	}
}

package hierarchy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
)

// buildDeep constructs a height-4 full binary partition of 32 nodes, two
// per leaf, with chain-free layering — exercising the multi-level span
// accounting that the paper's experiments (height-4 trees) rely on.
func buildDeep(t testing.TB) *Partition {
	t.Helper()
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(32)
	// Nets at every scale: neighbors, across leaves, across the root.
	for i := 0; i+1 < 32; i += 2 {
		b.AddNet("", 1, hypergraph.NodeID(i), hypergraph.NodeID(i+1)) // intra-leaf
	}
	for i := 0; i+2 < 32; i += 4 {
		b.AddNet("", 1, hypergraph.NodeID(i), hypergraph.NodeID(i+2)) // sibling leaves
	}
	b.AddNet("", 1, 0, 31) // spans the root
	b.AddNet("", 2, 0, 8, 16, 24)
	h := b.MustBuild()
	spec := Spec{
		Capacity: []int64{2, 4, 8, 16},
		Weight:   []float64{1, 2, 4, 8},
		Branch:   []int{2, 2, 2, 2},
	}
	tr := NewTree(4)
	var leaves []int
	var expand func(q int)
	expand = func(q int) {
		if tr.Level(q) == 0 {
			leaves = append(leaves, q)
			return
		}
		expand(tr.AddChild(q))
		expand(tr.AddChild(q))
	}
	expand(tr.Root())
	if len(leaves) != 16 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	p := NewPartition(h, spec, tr)
	for v := 0; v < 32; v++ {
		p.Assign(hypergraph.NodeID(v), leaves[v/2])
	}
	return p
}

func TestDeepPartitionValidates(t *testing.T) {
	p := buildDeep(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeepSpans(t *testing.T) {
	p := buildDeep(t)
	// The root-spanning 2-pin net (0,31) crosses every level.
	e := hypergraph.NetID(p.H.NumNets() - 2)
	for l := 0; l < 4; l++ {
		if got := p.Span(e, l); got != 2 {
			t.Fatalf("span(root net, %d) = %d, want 2", l, got)
		}
	}
	// The 4-pin net touching nodes 0, 8, 16, 24 spans 4 leaves, 4 level-1
	// blocks, 4 level-2 blocks, and 2 level-3 blocks.
	w := hypergraph.NetID(p.H.NumNets() - 1)
	want := []int{4, 4, 4, 2}
	for l, k := range want {
		if got := p.Span(w, l); got != k {
			t.Fatalf("span(wide net, %d) = %d, want %d", l, got, k)
		}
	}
	// Intra-leaf nets never contribute.
	if p.Span(0, 0) != 0 || p.NetCosts()[0] != 0 {
		t.Fatal("intra-leaf net costs something")
	}
}

func TestDeepCostStateAgreesWithBatch(t *testing.T) {
	p := buildDeep(t)
	cs := NewCostState(p)
	if math.Abs(cs.Cost()-p.Cost()) > 1e-9 {
		t.Fatalf("incremental %g vs batch %g", cs.Cost(), p.Cost())
	}
	// Random move storm at height 4.
	rng := rand.New(rand.NewSource(139))
	leaves := p.Tree.Leaves()
	for step := 0; step < 200; step++ {
		v := hypergraph.NodeID(rng.Intn(32))
		to := leaves[rng.Intn(len(leaves))]
		want := cs.MoveDelta(v, to)
		got := cs.Apply(v, to)
		if math.Abs(want-got) > 1e-9 {
			t.Fatalf("step %d: delta %g vs %g", step, want, got)
		}
	}
	if math.Abs(cs.Cost()-p.Cost()) > 1e-9 {
		t.Fatalf("after storm: incremental %g vs batch %g", cs.Cost(), p.Cost())
	}
}

// TestCostNonNegative_Quick: cost and every span are non-negative for
// arbitrary assignments (including wildly unbalanced ones).
func TestCostNonNegative_Quick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := buildDeep(&testing.T{})
		leaves := p.Tree.Leaves()
		for v := 0; v < 32; v++ {
			p.Assign(hypergraph.NodeID(v), leaves[rng.Intn(len(leaves))])
		}
		if p.Cost() < 0 {
			return false
		}
		for e := 0; e < p.H.NumNets(); e++ {
			for l := 0; l < 4; l++ {
				s := p.Span(hypergraph.NetID(e), l)
				if s < 0 || s == 1 {
					return false // span is 0 or >= 2 by definition
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSpanMonotoneUpLevels_Quick: span never increases walking up levels
// (blocks merge going up).
func TestSpanMonotoneUpLevels_Quick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := buildDeep(&testing.T{})
		leaves := p.Tree.Leaves()
		for v := 0; v < 32; v++ {
			p.Assign(hypergraph.NodeID(v), leaves[rng.Intn(len(leaves))])
		}
		for e := 0; e < p.H.NumNets(); e++ {
			prev := 1 << 30
			for l := 0; l < 4; l++ {
				s := p.Span(hypergraph.NetID(e), l)
				// compare block counts, treating span 0 as 1 block
				blocks := s
				if blocks == 0 {
					blocks = 1
				}
				if blocks > prev {
					return false
				}
				prev = blocks
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCostStateApply(b *testing.B) {
	p := buildDeep(b)
	cs := NewCostState(p)
	leaves := p.Tree.Leaves()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Apply(hypergraph.NodeID(rng.Intn(32)), leaves[rng.Intn(len(leaves))])
	}
}

func BenchmarkBatchCost(b *testing.B) {
	p := buildDeep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Cost()
	}
}

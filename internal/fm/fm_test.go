package fm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
)

// twoCliquesBridge builds two K4 cliques joined by one net; min cut = 1.
func twoCliquesBridge(t testing.TB) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(8)
	for c := 0; c < 2; c++ {
		base := c * 4
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddNet("", 1, hypergraph.NodeID(base+i), hypergraph.NodeID(base+j))
			}
		}
	}
	b.AddNet("bridge", 1, 0, 4)
	return b.MustBuild()
}

func TestRefineBipartitionFindsBridge(t *testing.T) {
	h := twoCliquesBridge(t)
	// Awful initial split: interleaved.
	inA := make([]bool, 8)
	for v := 0; v < 8; v += 2 {
		inA[v] = true
	}
	// The window needs at least one node of slack: FM enforces balance after
	// every single move, so a zero-width window would freeze the partition.
	cut := RefineBipartitionCtx(context.Background(), h, inA, 3, 5, BiOptions{})
	if cut != 1 {
		t.Fatalf("cut = %g, want 1", cut)
	}
	// Verify the sides are the cliques.
	if inA[0] != inA[1] || inA[1] != inA[2] || inA[2] != inA[3] {
		t.Fatalf("clique A split: %v", inA)
	}
	if inA[4] != inA[5] || inA[5] != inA[6] || inA[6] != inA[7] {
		t.Fatalf("clique B split: %v", inA)
	}
	if inA[0] == inA[4] {
		t.Fatal("cliques on same side")
	}
}

func TestRefineBipartitionRespectsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(16)
		b := hypergraph.NewBuilder()
		b.AddUnitNodes(n)
		for e := 0; e < 3*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddNet("", float64(1+rng.Intn(3)), hypergraph.NodeID(u), hypergraph.NodeID(v))
			}
		}
		h := b.MustBuild()
		lb, ub := int64(n/2-1), int64(n/2+1)
		inA := GrowSeedSideCtx(context.Background(), h, 0, int64(n/2))
		RefineBipartitionCtx(context.Background(), h, inA, lb, ub, BiOptions{Rng: rng})
		var size int64
		for v := 0; v < n; v++ {
			if inA[v] {
				size++
			}
		}
		if size < lb || size > ub {
			t.Fatalf("trial %d: side size %d outside [%d..%d]", trial, size, lb, ub)
		}
	}
}

func TestRefineBipartitionReturnsTrueCut(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(14)
		b := hypergraph.NewBuilder()
		b.AddUnitNodes(n)
		for e := 0; e < 2*n; e++ {
			card := 2 + rng.Intn(3)
			if card > n {
				card = n
			}
			perm := rng.Perm(n)[:card]
			pins := make([]hypergraph.NodeID, card)
			for i, p := range perm {
				pins[i] = hypergraph.NodeID(p)
			}
			b.AddNet("", float64(1+rng.Intn(4)), pins...)
		}
		h := b.MustBuild()
		inA := GrowSeedSideCtx(context.Background(), h, hypergraph.NodeID(rng.Intn(n)), int64(n/2))
		got := RefineBipartitionCtx(context.Background(), h, inA, int64(n/2-2), int64(n/2+2), BiOptions{Rng: rng})
		want, _ := h.CutCapacity(inA)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: reported cut %g, actual %g", trial, got, want)
		}
	}
}

func TestRefineBipartitionNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(10)
		b := hypergraph.NewBuilder()
		b.AddUnitNodes(n)
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddNet("", 1, hypergraph.NodeID(u), hypergraph.NodeID(v))
			}
		}
		h := b.MustBuild()
		inA := make([]bool, n)
		for v := 0; v < n/2; v++ {
			inA[v] = true
		}
		before, _ := h.CutCapacity(inA)
		after := RefineBipartitionCtx(context.Background(), h, inA, int64(n/2-1), int64(n/2+1), BiOptions{Rng: rng})
		if after > before+1e-9 {
			t.Fatalf("trial %d: cut worsened %g -> %g", trial, before, after)
		}
	}
}

func TestGrowSeedSide(t *testing.T) {
	h := twoCliquesBridge(t)
	inA := GrowSeedSideCtx(context.Background(), h, 1, 4)
	var size int64
	for v := 0; v < 8; v++ {
		if inA[v] {
			size++
		}
	}
	if size != 4 {
		t.Fatalf("grown size = %d, want 4", size)
	}
	if !inA[1] {
		t.Fatal("seed not in side")
	}
}

func TestGrowSeedSideDisconnected(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(6)
	b.AddNet("", 1, 0, 1) // component {0,1}; nodes 2..5 isolated except pair
	b.AddNet("", 1, 2, 3)
	b.AddNet("", 1, 4, 5)
	h := b.MustBuild()
	inA := GrowSeedSideCtx(context.Background(), h, 0, 4)
	var size int64
	for v := 0; v < 6; v++ {
		if inA[v] {
			size++
		}
	}
	if size != 4 {
		t.Fatalf("grown size = %d, want 4 (absorbing across components)", size)
	}
}

func TestRecursiveBisectionBlockSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 10; trial++ {
		n := 16 + rng.Intn(32)
		b := hypergraph.NewBuilder()
		b.AddUnitNodes(n)
		for e := 0; e < 3*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddNet("", 1, hypergraph.NodeID(u), hypergraph.NodeID(v))
			}
		}
		h := b.MustBuild()
		maxBlock := int64(4 + rng.Intn(4))
		blockOf, k := RecursiveBisection(context.Background(), h, maxBlock, BiOptions{Rng: rng})
		sizes := make([]int64, k)
		for v, blk := range blockOf {
			if blk < 0 || blk >= k {
				t.Fatalf("node %d in block %d of %d", v, blk, k)
			}
			sizes[blk] += h.NodeSize(hypergraph.NodeID(v))
		}
		for blk, s := range sizes {
			if s == 0 {
				t.Fatalf("trial %d: block %d empty", trial, blk)
			}
			if s > maxBlock {
				t.Fatalf("trial %d: block %d size %d > %d", trial, blk, s, maxBlock)
			}
		}
	}
}

func TestRecursiveBisectionSingleBlock(t *testing.T) {
	h := twoCliquesBridge(t)
	blockOf, k := RecursiveBisection(context.Background(), h, 100, BiOptions{})
	if k != 1 {
		t.Fatalf("blocks = %d, want 1", k)
	}
	for _, blk := range blockOf {
		if blk != 0 {
			t.Fatal("node outside block 0")
		}
	}
}

// buildBadPartition puts both cliques interleaved across a height-2 tree.
func buildBadPartition(t testing.TB) *hierarchy.Partition {
	h := twoCliquesBridge(t)
	// Capacities leave one node of slack per block; with exactly-full blocks
	// single-node moves cannot rebalance and refinement would be frozen.
	spec := hierarchy.Spec{Capacity: []int64{3, 6}, Weight: []float64{1, 2}, Branch: []int{2, 2}}
	tr := hierarchy.NewTree(2)
	p1, p2 := tr.AddChild(0), tr.AddChild(0)
	leaves := []int{tr.AddChild(p1), tr.AddChild(p1), tr.AddChild(p2), tr.AddChild(p2)}
	p := hierarchy.NewPartition(h, spec, tr)
	for v := 0; v < 8; v++ {
		p.Assign(hypergraph.NodeID(v), leaves[v%4]) // interleaved: terrible
	}
	return p
}

func TestRefineHierarchicalImproves(t *testing.T) {
	p := buildBadPartition(t)
	before := p.Cost()
	cost, improvement := RefineHierarchicalCtx(context.Background(), p, RefineOptions{})
	if math.Abs(cost-p.Cost()) > 1e-9 {
		t.Fatalf("reported cost %g, actual %g", cost, p.Cost())
	}
	if improvement <= 0 {
		t.Fatalf("no improvement from a terrible start (before %g, after %g)", before, cost)
	}
	if math.Abs(before-improvement-cost) > 1e-9 {
		t.Fatal("improvement arithmetic inconsistent")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("refined partition invalid: %v", err)
	}
}

func TestRefineHierarchicalIdempotentAtOptimum(t *testing.T) {
	// Assign cliques to the two level-1 subtrees; only the bridge crosses.
	h := twoCliquesBridge(t)
	spec := hierarchy.Spec{Capacity: []int64{2, 4}, Weight: []float64{1, 2}, Branch: []int{2, 2}}
	tr := hierarchy.NewTree(2)
	p1, p2 := tr.AddChild(0), tr.AddChild(0)
	leaves := []int{tr.AddChild(p1), tr.AddChild(p1), tr.AddChild(p2), tr.AddChild(p2)}
	p := hierarchy.NewPartition(h, spec, tr)
	order := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for v := 0; v < 8; v++ {
		p.Assign(hypergraph.NodeID(v), leaves[order[v]])
	}
	before := p.Cost()
	after, improvement := RefineHierarchicalCtx(context.Background(), p, RefineOptions{})
	if after > before+1e-9 {
		t.Fatalf("refinement worsened %g -> %g", before, after)
	}
	if improvement < 0 {
		t.Fatalf("negative improvement %g", improvement)
	}
}

func TestRefineHierarchicalRandomizedStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 10; trial++ {
		n := 12 + rng.Intn(12)
		b := hypergraph.NewBuilder()
		b.AddUnitNodes(n)
		for e := 0; e < 2*n; e++ {
			card := 2 + rng.Intn(2)
			perm := rng.Perm(n)[:card]
			pins := make([]hypergraph.NodeID, card)
			for i, p := range perm {
				pins[i] = hypergraph.NodeID(p)
			}
			b.AddNet("", 1, pins...)
		}
		h := b.MustBuild()
		c0 := int64(n)/4 + 2
		spec := hierarchy.Spec{Capacity: []int64{c0, 2*c0 + 1}, Weight: []float64{1, 2}, Branch: []int{2, 2}}
		tr := hierarchy.NewTree(2)
		p1, p2 := tr.AddChild(0), tr.AddChild(0)
		leaves := []int{tr.AddChild(p1), tr.AddChild(p1), tr.AddChild(p2), tr.AddChild(p2)}
		p := hierarchy.NewPartition(h, spec, tr)
		for v := 0; v < n; v++ {
			p.Assign(hypergraph.NodeID(v), leaves[v%4])
		}
		if err := p.Validate(); err != nil {
			continue // rare: initial round-robin overflows; skip trial
		}
		before := p.Cost()
		after, _ := RefineHierarchicalCtx(context.Background(), p, RefineOptions{Rng: rng})
		if after > before+1e-9 {
			t.Fatalf("trial %d: worsened %g -> %g", trial, before, after)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: invalid after refinement: %v", trial, err)
		}
	}
}

func BenchmarkRefineBipartition(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1000
	hb := hypergraph.NewBuilder()
	hb.AddUnitNodes(n)
	for e := 0; e < 2*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			hb.AddNet("", 1, hypergraph.NodeID(u), hypergraph.NodeID(v))
		}
	}
	h := hb.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inA := GrowSeedSideCtx(context.Background(), h, hypergraph.NodeID(i%n), int64(n/2))
		RefineBipartitionCtx(context.Background(), h, inA, int64(n/2-50), int64(n/2+50), BiOptions{})
	}
}

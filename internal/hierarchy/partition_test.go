package hierarchy

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hypergraph"
)

// buildExample constructs an 8-node hypergraph in a height-2 binary tree:
// leaves {0,1}, {2,3}, {4,5}, {6,7}; level-1 blocks {0..3}, {4..7}.
// Nets: inside-leaf (0,1); cross-leaf same parent (1,2); cross-parent (3,4);
// a 3-pin net spanning everything (0,3,7).
func buildExample(t *testing.T) (*Partition, []int) {
	t.Helper()
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(8)
	b.AddNet("inside", 1, 0, 1)
	b.AddNet("sibling", 1, 1, 2)
	b.AddNet("cross", 2, 3, 4)
	b.AddNet("wide", 1, 0, 3, 7)
	h := b.MustBuild()
	spec := Spec{Capacity: []int64{2, 4}, Weight: []float64{1, 2}, Branch: []int{2, 2}}
	tr := NewTree(2)
	l1a := tr.AddChild(0)
	l1b := tr.AddChild(0)
	leaves := []int{tr.AddChild(l1a), tr.AddChild(l1a), tr.AddChild(l1b), tr.AddChild(l1b)}
	p := NewPartition(h, spec, tr)
	for v := 0; v < 8; v++ {
		p.Assign(hypergraph.NodeID(v), leaves[v/2])
	}
	return p, leaves
}

func TestPartitionValidateOK(t *testing.T) {
	p, _ := buildExample(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanValues(t *testing.T) {
	p, _ := buildExample(t)
	cases := []struct {
		net    hypergraph.NetID
		l0, l1 int
	}{
		{0, 0, 0}, // inside one leaf
		{1, 2, 0}, // two leaves, same parent
		{2, 2, 2}, // crosses parents
		{3, 3, 2}, // 3 leaves, 2 parents
	}
	for _, c := range cases {
		if got := p.Span(c.net, 0); got != c.l0 {
			t.Errorf("span(net%d, 0) = %d, want %d", c.net, got, c.l0)
		}
		if got := p.Span(c.net, 1); got != c.l1 {
			t.Errorf("span(net%d, 1) = %d, want %d", c.net, got, c.l1)
		}
	}
}

func TestNetCostAndTotal(t *testing.T) {
	p, _ := buildExample(t)
	// cost(e) = c(e) * (w0*span0 + w1*span1); w = (1,2)
	wantNet := []float64{
		0,             // inside
		1 * (2 + 0),   // sibling: span0=2
		2 * (2 + 2*2), // cross: c=2, span0=2, span1=2
		1 * (3 + 2*2), // wide
	}
	var total float64
	costs := p.NetCosts()
	for e, w := range wantNet {
		if got := costs[e]; math.Abs(got-w) > 1e-12 {
			t.Errorf("NetCosts()[%d] = %g, want %g", e, got, w)
		}
		total += w
	}
	if got := p.Cost(); math.Abs(got-total) > 1e-12 {
		t.Errorf("Cost = %g, want %g", got, total)
	}
	lc := p.LevelCosts()
	if len(lc) != 2 {
		t.Fatalf("LevelCosts length = %d", len(lc))
	}
	if math.Abs(lc[0]+lc[1]-total) > 1e-12 {
		t.Errorf("level costs %v do not sum to %g", lc, total)
	}
}

func TestBlockSizesAndNodes(t *testing.T) {
	p, leaves := buildExample(t)
	sizes := p.BlockSizes()
	if sizes[p.Tree.Root()] != 8 {
		t.Fatalf("root size = %d", sizes[p.Tree.Root()])
	}
	for _, leaf := range leaves {
		if sizes[leaf] != 2 {
			t.Fatalf("leaf size = %d", sizes[leaf])
		}
	}
	nodes := p.Nodes(1) // first level-1 vertex holds nodes 0..3
	if len(nodes) != 4 || nodes[0] != 0 || nodes[3] != 3 {
		t.Fatalf("Nodes(1) = %v", nodes)
	}
}

func TestValidateCatchesCapacityViolation(t *testing.T) {
	p, leaves := buildExample(t)
	// Overstuff leaf 0 with a third node.
	p.Assign(2, leaves[0])
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "C_0") {
		t.Fatalf("expected capacity violation, got %v", err)
	}
}

func TestValidateCatchesUnassigned(t *testing.T) {
	p, _ := buildExample(t)
	p.LeafOf[5] = -1
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unassigned") {
		t.Fatalf("expected unassigned error, got %v", err)
	}
}

func TestValidateCatchesBranchViolation(t *testing.T) {
	p, _ := buildExample(t)
	// Third child under the first level-1 vertex exceeds K_1 = 2.
	extra := p.Tree.AddChild(1)
	p.Assign(0, extra)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "children") {
		t.Fatalf("expected branch violation, got %v", err)
	}
}

func TestAssignToNonLeafPanics(t *testing.T) {
	p, _ := buildExample(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Assign(0, 1) // vertex 1 is at level 1
}

func TestCloneIndependence(t *testing.T) {
	p, leaves := buildExample(t)
	c := p.Clone()
	origCost := p.Cost()
	c.Assign(0, leaves[3])
	c.Tree.AddChild(1)
	if p.Cost() != origCost {
		t.Fatal("clone mutation affected original cost")
	}
	if p.Tree.NumVertices() == c.Tree.NumVertices() {
		t.Fatal("clone shares tree")
	}
}

func TestStringRendering(t *testing.T) {
	p, _ := buildExample(t)
	s := p.String()
	if !strings.Contains(s, "level=2") || !strings.Contains(s, "size=8") {
		t.Fatalf("String() = %q", s)
	}
}

// ---- CostState ----

func TestCostStateMatchesBatchCost(t *testing.T) {
	p, _ := buildExample(t)
	cs := NewCostState(p)
	if math.Abs(cs.Cost()-p.Cost()) > 1e-12 {
		t.Fatalf("CostState %g vs batch %g", cs.Cost(), p.Cost())
	}
	if cs.TopLevel() != 2 {
		t.Fatalf("TopLevel = %d", cs.TopLevel())
	}
}

func TestMoveDeltaMatchesApply(t *testing.T) {
	p, leaves := buildExample(t)
	cs := NewCostState(p)
	before := cs.Cost()
	delta := cs.MoveDelta(3, leaves[2])
	applied := cs.Apply(3, leaves[2])
	if math.Abs(delta-applied) > 1e-12 {
		t.Fatalf("MoveDelta %g != Apply %g", delta, applied)
	}
	if math.Abs(cs.Cost()-(before+delta)) > 1e-12 {
		t.Fatal("cost not updated by delta")
	}
	// Recompute from scratch.
	if math.Abs(cs.Cost()-p.Cost()) > 1e-12 {
		t.Fatalf("incremental %g vs batch %g after move", cs.Cost(), p.Cost())
	}
}

func TestMoveToSameLeafIsZero(t *testing.T) {
	p, leaves := buildExample(t)
	cs := NewCostState(p)
	if cs.MoveDelta(0, leaves[0]) != 0 || cs.Apply(0, leaves[0]) != 0 {
		t.Fatal("same-leaf move should be free")
	}
}

func TestCanMoveRespectsCapacity(t *testing.T) {
	p, leaves := buildExample(t)
	cs := NewCostState(p)
	// Leaf capacity is 2 and every leaf is full.
	if cs.CanMove(0, leaves[1]) {
		t.Fatal("CanMove allowed overfilling a leaf")
	}
	// Free a slot in leaves[1] (which holds nodes 2,3), then it must be
	// allowed. Apply itself does not police capacities.
	cs.Apply(2, leaves[3])
	if !cs.CanMove(0, leaves[1]) {
		t.Fatal("CanMove denied a feasible move")
	}
}

func TestCostStateRandomizedAgainstBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		// Random hypergraph on 12 nodes, height-2 tree with 4 leaves.
		b := hypergraph.NewBuilder()
		b.AddUnitNodes(12)
		for e := 0; e < 20; e++ {
			card := 2 + rng.Intn(3)
			perm := rng.Perm(12)[:card]
			pins := make([]hypergraph.NodeID, card)
			for i, pp := range perm {
				pins[i] = hypergraph.NodeID(pp)
			}
			b.AddNet("", float64(1+rng.Intn(3)), pins...)
		}
		h := b.MustBuild()
		spec := Spec{Capacity: []int64{6, 12}, Weight: []float64{1, 3}, Branch: []int{2, 2}}
		tr := NewTree(2)
		p1, p2 := tr.AddChild(0), tr.AddChild(0)
		leaves := []int{tr.AddChild(p1), tr.AddChild(p1), tr.AddChild(p2), tr.AddChild(p2)}
		p := NewPartition(h, spec, tr)
		for v := 0; v < 12; v++ {
			p.Assign(hypergraph.NodeID(v), leaves[v%4])
		}
		cs := NewCostState(p)
		for step := 0; step < 40; step++ {
			v := hypergraph.NodeID(rng.Intn(12))
			to := leaves[rng.Intn(4)]
			want := cs.MoveDelta(v, to)
			got := cs.Apply(v, to)
			if math.Abs(want-got) > 1e-9 {
				t.Fatalf("trial %d step %d: delta %g vs applied %g", trial, step, want, got)
			}
			if math.Abs(cs.Cost()-p.Cost()) > 1e-9 {
				t.Fatalf("trial %d step %d: incremental %g vs batch %g", trial, step, cs.Cost(), p.Cost())
			}
			// Sizes must agree with a fresh recount.
			sizes := p.BlockSizes()
			for q := 0; q < tr.NumVertices(); q++ {
				if cs.BlockSize(q) != sizes[q] {
					t.Fatalf("trial %d: size mismatch at vertex %d", trial, q)
				}
			}
		}
	}
}

// mapSpan counts span(e, l) with a set per call: the reference that the
// stamp-array count is checked against.
func mapSpan(p *Partition, e hypergraph.NetID, level int) int {
	seen := map[int]bool{}
	for _, v := range p.H.Pins(e) {
		if leaf := p.LeafOf[v]; leaf >= 0 {
			seen[p.Tree.AncestorAt(int(leaf), level)] = true
		}
	}
	if len(seen) <= 1 {
		return 0
	}
	return len(seen)
}

// TestCostCountsSpansInOneArray prices partitions of a contracted graph,
// as the V-cycle's coarse FLOW solve does, on a 33-vertex tree whose
// stamps fit on the stack and on an 81-vertex one, each also with an
// unassigned node. Every span, net cost, Cost and LevelCosts must read
// what set-per-pair counting summed in the same order reads, bit for bit,
// and Cost must allocate nothing on the small tree and one stamp array on
// the large one: nothing per net or level.
func TestCostCountsSpansInOneArray(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 96
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(n)
	for e := 0; e < 400; e++ {
		perm := rng.Perm(n)[:2+rng.Intn(12)]
		pins := make([]hypergraph.NodeID, len(perm))
		for i, v := range perm {
			pins[i] = hypergraph.NodeID(v)
		}
		b.AddNet("", float64(1+rng.Intn(3))/3, pins...)
	}
	clusterOf := make([]int, n)
	for v := range clusterOf {
		clusterOf[v] = v / 3
	}
	coarse, err := b.MustBuild().ContractDedup(clusterOf, n/3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lows, leaves int
		allocs       float64
	}{{3, 4, 0}, {3, 12, 1}} {
		spec := Spec{Capacity: []int64{6, 20, 40}, Weight: []float64{1, 2.5, 4}, Branch: []int{tc.leaves, tc.lows, 2}}
		tr := NewTree(3)
		var leaves []int
		for i := 0; i < 2; i++ {
			mid := tr.AddChild(0)
			for j := 0; j < tc.lows; j++ {
				low := tr.AddChild(mid)
				for k := 0; k < tc.leaves; k++ {
					leaves = append(leaves, tr.AddChild(low))
				}
			}
		}
		p := NewPartition(coarse, spec, tr)
		for v := 0; v < coarse.NumNodes(); v++ {
			p.Assign(hypergraph.NodeID(v), leaves[rng.Intn(len(leaves))])
		}
		partial := p.Clone()
		partial.LeafOf[5] = -1
		for _, q := range []*Partition{p, partial} {
			var cost float64
			levels := make([]float64, 3)
			netCosts := q.NetCosts()
			for e := 0; e < q.H.NumNets(); e++ {
				net := hypergraph.NetID(e)
				var netCost float64
				for l := 0; l < 3; l++ {
					s := mapSpan(q, net, l)
					if got := q.Span(net, l); got != s {
						t.Fatalf("%d vertices: Span(%d, %d) = %d, a set counts %d", tr.NumVertices(), e, l, got, s)
					}
					netCost += spec.Weight[l] * float64(s)
					levels[l] += spec.Weight[l] * float64(s) * q.H.NetCapacity(net)
				}
				netCost *= q.H.NetCapacity(net)
				if math.Float64bits(netCosts[e]) != math.Float64bits(netCost) {
					t.Fatalf("%d vertices: NetCosts()[%d] = %v, set counting %v", tr.NumVertices(), e, netCosts[e], netCost)
				}
				cost += netCost
			}
			if got := q.Cost(); math.Float64bits(got) != math.Float64bits(cost) {
				t.Fatalf("%d vertices: Cost() = %v, set counting %v", tr.NumVertices(), got, cost)
			}
			for l, got := range q.LevelCosts() {
				if math.Float64bits(got) != math.Float64bits(levels[l]) {
					t.Fatalf("%d vertices: LevelCosts()[%d] = %v, set counting %v", tr.NumVertices(), l, got, levels[l])
				}
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { p.Cost() }); allocs != tc.allocs {
			t.Fatalf("Cost over %d nets on %d tree vertices allocated %v times, want %v", coarse.NumNets(), tr.NumVertices(), allocs, tc.allocs)
		}
	}
}

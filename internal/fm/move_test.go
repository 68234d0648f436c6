package fm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
)

// moveCase is one random instance for the move-selection oracle: a
// partition of a small hypergraph over a full binary tree, and the net-scan
// cap the routine runs with.
type moveCase struct {
	p    *hierarchy.Partition
	scan int
	rng  *rand.Rand
}

// newMoveCase builds 6–48 nodes of size 1–2 with 2–10-pin nets, capacities
// drawn from values that include 0 and non-dyadic ones, over a height 1–4
// spec with slack 1.0–1.5 (tight enough that CanMove blocks candidates) and
// weight base 1, 1.1, 2 or 3. shape's low bit makes the design fit one leaf
// (a root-only tree); its other bits pick the scan cap, from none down to 3
// pins. Nodes are packed first-fit in random order; a node that fits
// nowhere goes to the emptiest leaf, so a few partitions overfill a leaf,
// which the routine must handle as the loop does.
func newMoveCase(seed int64, nodes, height, slack, base, shape uint8) moveCase {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + int(nodes)%43
	b := hypergraph.NewBuilder()
	for v := 0; v < n; v++ {
		b.AddNode("", 1+int64(rng.Intn(4)/3))
	}
	caps := []float64{0, 1, 2, 0.1, 0.7, 1.3}
	for e := 0; e < n+rng.Intn(2*n); e++ {
		perm := rng.Perm(n)[:2+rng.Intn(min(9, n-1))]
		pins := make([]hypergraph.NodeID, len(perm))
		for i, u := range perm {
			pins[i] = hypergraph.NodeID(u)
		}
		b.AddNet("", caps[rng.Intn(len(caps))], pins...)
	}
	h := b.MustBuild()

	L := 1 + int(height)%4
	weights := hierarchy.GeometricWeights(L, []float64{1, 1.1, 2, 3}[base%4])
	spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), L, weights, 1+float64(slack%51)/100)
	if err != nil {
		panic(err)
	}
	if shape&1 == 1 {
		for l := range spec.Capacity {
			spec.Capacity[l] = h.TotalSize() << l
		}
	}
	top := spec.TopLevel(h.TotalSize())
	tr := hierarchy.NewTree(top)
	var leaves []int
	var grow func(q int)
	grow = func(q int) {
		if tr.IsLeaf(q) {
			leaves = append(leaves, q)
			return
		}
		grow(tr.AddChild(q))
		grow(tr.AddChild(q))
	}
	grow(tr.Root())

	p := hierarchy.NewPartition(h, spec, tr)
	sizes := make([]int64, tr.NumVertices())
	fits := func(leaf int, s int64) bool {
		for q, l := leaf, 0; l < top; q, l = tr.Parent(q), l+1 {
			if sizes[q]+s > spec.Capacity[l] {
				return false
			}
		}
		return true
	}
	for _, v := range rng.Perm(n) {
		s := h.NodeSize(hypergraph.NodeID(v))
		at := -1
		for _, i := range rng.Perm(len(leaves)) {
			if fits(leaves[i], s) {
				at = leaves[i]
				break
			}
		}
		if at < 0 {
			at = leaves[0]
			for _, q := range leaves {
				if sizes[q] < sizes[at] {
					at = q
				}
			}
		}
		p.Assign(hypergraph.NodeID(v), at)
		for q := at; q >= 0; q = tr.Parent(q) {
			sizes[q] += s
		}
	}
	scan := []int{math.MaxInt, MaxNetScan, 5, 4, 3}[int(shape>>1)%5]
	return moveCase{p: p, scan: scan, rng: rng}
}

// bestMoveOracle is the candidate loop both refiners ran before mover:
// every leaf of v's scanned nets in discovery order, filtered by CanMove,
// scored by MoveDelta, strict < below −1e-12.
func bestMoveOracle(cs *hierarchy.CostState, v hypergraph.NodeID, maxNetScan int) (int, float64) {
	p := cs.P
	from := p.LeafOf[v]
	seen := map[int32]bool{}
	bestLeaf, bestDelta := -1, -1e-12
	for _, e := range p.H.Incident(v) {
		pins := p.H.Pins(e)
		if len(pins) > maxNetScan {
			continue
		}
		for _, u := range pins {
			leaf := p.LeafOf[u]
			if leaf == from || seen[leaf] {
				continue
			}
			seen[leaf] = true
			if !cs.CanMove(v, int(leaf)) {
				continue
			}
			if d := cs.MoveDelta(v, int(leaf)); d < bestDelta {
				bestLeaf, bestDelta = int(leaf), d
			}
		}
	}
	if bestLeaf < 0 {
		return -1, 0
	}
	return bestLeaf, bestDelta
}

// checkBestMove runs three random-order sweeps over the nodes. At every
// node it compares mover.best with the oracle (same leaf, same delta bits)
// and MoveDeltas over every other leaf with MoveDelta, then applies the
// chosen move so the span windows keep changing.
func checkBestMove(t *testing.T, c moveCase) {
	t.Helper()
	p := c.p
	cs := hierarchy.NewCostState(p)
	m := newMover(cs, c.scan)
	var others []int32
	var deltas []float64
	for sweep := 0; sweep < 3; sweep++ {
		for _, vi := range c.rng.Perm(p.H.NumNodes()) {
			v := hypergraph.NodeID(vi)
			others, deltas = others[:0], deltas[:0]
			for _, leaf := range p.Tree.Leaves() {
				if int32(leaf) != p.LeafOf[v] {
					others = append(others, int32(leaf))
					deltas = append(deltas, 0)
				}
			}
			cs.MoveDeltas(v, others, deltas)
			for i, leaf := range others {
				if want := cs.MoveDelta(v, int(leaf)); math.Float64bits(deltas[i]) != math.Float64bits(want) {
					t.Fatalf("sweep %d node %d: MoveDeltas to leaf %d = %v, MoveDelta %v", sweep, v, leaf, deltas[i], want)
				}
			}
			wantLeaf, wantDelta := bestMoveOracle(cs, v, c.scan)
			gotLeaf, gotDelta := m.best(v)
			if gotLeaf != wantLeaf || math.Float64bits(gotDelta) != math.Float64bits(wantDelta) {
				t.Fatalf("sweep %d node %d: best = leaf %d delta %v, oracle leaf %d delta %v",
					sweep, v, gotLeaf, gotDelta, wantLeaf, wantDelta)
			}
			if gotLeaf >= 0 {
				cs.Apply(v, gotLeaf)
			}
		}
	}
}

// FuzzBestMove checks the move routine both hierarchical refiners share
// against the per-candidate loop it replaced, node by node, while the
// chosen moves reshape the partition.
func FuzzBestMove(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(1), uint8(10), uint8(1), uint8(0))
	f.Add(int64(2), uint8(42), uint8(3), uint8(0), uint8(2), uint8(2))
	f.Add(int64(3), uint8(30), uint8(2), uint8(50), uint8(3), uint8(6))
	f.Add(int64(4), uint8(10), uint8(0), uint8(25), uint8(0), uint8(1))
	f.Add(int64(5), uint8(36), uint8(3), uint8(5), uint8(1), uint8(8))
	f.Add(int64(6), uint8(0), uint8(1), uint8(0), uint8(1), uint8(4))
	f.Add(int64(7), uint8(16), uint8(0), uint8(20), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nodes, height, slack, base, shape uint8) {
		checkBestMove(t, newMoveCase(seed, nodes, height, slack, base, shape))
	})
}

// TestBestMoveAllocs checks that a warmed-up visit allocates nothing: the
// candidate, delta and stamp scratch are reused from visit to visit.
func TestBestMoveAllocs(t *testing.T) {
	c := newMoveCase(7, 40, 3, 10, 1, 0)
	cs := hierarchy.NewCostState(c.p)
	m := newMover(cs, c.scan)
	n := c.p.H.NumNodes()
	if allocs := testing.AllocsPerRun(20, func() {
		for v := 0; v < n; v++ {
			m.best(hypergraph.NodeID(v))
		}
	}); allocs != 0 {
		t.Fatalf("a sweep of warmed-up visits allocates %v times, want 0", allocs)
	}
}

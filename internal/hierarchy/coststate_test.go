package hierarchy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
)

// TestCostStateSpanWindows runs a random move storm on the two shapes that
// bound CostState's slot windows from either side: a wide tree with small
// nets, where a window is as long as its net, and a tree under a net that
// spans every node, where a window is as long as its level is wide. After
// every move the incremental state must match a from-scratch evaluation.
func TestCostStateSpanWindows(t *testing.T) {
	cases := []struct {
		name       string
		nodes      int
		leavesPer  int // leaves under each of the root's two children
		randomNets int
		spanAll    bool
	}{
		{"wide tree, 2-3 pin nets", 48, 8, 60, false},
		{"net spanning every node", 12, 2, 10, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(16))
			b := hypergraph.NewBuilder()
			b.AddUnitNodes(tc.nodes)
			if tc.spanAll {
				all := make([]hypergraph.NodeID, tc.nodes)
				for v := range all {
					all[v] = hypergraph.NodeID(v)
				}
				b.AddNet("all", 2, all...)
			}
			for e := 0; e < tc.randomNets; e++ {
				perm := rng.Perm(tc.nodes)[:2+rng.Intn(2)]
				pins := make([]hypergraph.NodeID, len(perm))
				for i, v := range perm {
					pins[i] = hypergraph.NodeID(v)
				}
				b.AddNet("", float64(1+rng.Intn(3)), pins...)
			}
			h := b.MustBuild()
			spec := Spec{Capacity: []int64{int64(tc.nodes), int64(tc.nodes)}, Weight: []float64{1, 3},
				Branch: []int{tc.leavesPer, 2}}
			tr := NewTree(2)
			var leaves []int
			for _, parent := range []int{tr.AddChild(0), tr.AddChild(0)} {
				for i := 0; i < tc.leavesPer; i++ {
					leaves = append(leaves, tr.AddChild(parent))
				}
			}
			p := NewPartition(h, spec, tr)
			for v := 0; v < tc.nodes; v++ {
				p.Assign(hypergraph.NodeID(v), leaves[rng.Intn(len(leaves))])
			}
			cs := NewCostState(p)
			checkSpanWindows(t, cs)
			for step := 0; step < 400; step++ {
				v := hypergraph.NodeID(rng.Intn(tc.nodes))
				to := leaves[rng.Intn(len(leaves))]
				want := cs.MoveDelta(v, to)
				if got := cs.Apply(v, to); got != want {
					t.Fatalf("step %d: MoveDelta %g, Apply %g", step, want, got)
				}
				if math.Abs(cs.Cost()-p.Cost()) > 1e-9 {
					t.Fatalf("step %d: incremental cost %g, batch %g", step, cs.Cost(), p.Cost())
				}
				checkSpanWindows(t, cs)
			}
		})
	}
}

// checkSpanWindows checks every (net, level) window against the partition:
// as many live blocks as Partition.Span counts, each with a positive pin
// count, the counts summing to the net's pins, and the live slots within
// the window's min(|e|, level width) bound.
func checkSpanWindows(t *testing.T, cs *CostState) {
	t.Helper()
	p := cs.P
	width := make([]int, cs.top)
	for q := 0; q < p.Tree.NumVertices(); q++ {
		if l := p.Tree.Level(q); l < cs.top {
			width[l]++
		}
	}
	for e := 0; e < p.H.NumNets(); e++ {
		card := len(p.H.Pins(hypergraph.NetID(e)))
		for l := 0; l < cs.top; l++ {
			idx := e*cs.top + l
			live := cs.live(idx)
			want := p.Span(hypergraph.NetID(e), l)
			if want == 0 {
				want = 1 // Span reports one block as 0
			}
			if len(live) != want {
				t.Fatalf("net %d level %d: %d live blocks, Span says %d", e, l, len(live), want)
			}
			end := len(cs.slots)
			if idx+1 < len(cs.win) {
				end = int(cs.win[idx+1].start)
			}
			if size := end - int(cs.win[idx].start); size != min(card, width[l]) {
				t.Fatalf("net %d level %d: window of %d slots, want min(%d, %d)", e, l, size, card, width[l])
			}
			pins := 0
			for _, s := range live {
				if s.count <= 0 {
					t.Fatalf("net %d level %d: live block %d with count %d", e, l, s.block, s.count)
				}
				pins += int(s.count)
			}
			if pins != card {
				t.Fatalf("net %d level %d: counts sum to %d, net has %d pins", e, l, pins, card)
			}
		}
	}
}

// TestCostStateResetReusesArena refills one arena, reserved for a fine
// graph, with partitions of that graph and of a graph contracted from it,
// the way a V-cycle's descent does. Each refill must read exactly what a
// fresh state reads (the same cost float, the same windows) and, once the
// arena is warm, allocate nothing.
func TestCostStateResetReusesArena(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const n = 64
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(n)
	for e := 0; e < 150; e++ {
		perm := rng.Perm(n)[:2+rng.Intn(4)]
		pins := make([]hypergraph.NodeID, len(perm))
		for i, v := range perm {
			pins[i] = hypergraph.NodeID(v)
		}
		b.AddNet("", float64(1+rng.Intn(3))/3, pins...)
	}
	fine := b.MustBuild()
	clusterOf := make([]int, n)
	for v := range clusterOf {
		clusterOf[v] = v / 2
	}
	coarse, err := fine.ContractDedup(clusterOf, n/2)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Capacity: []int64{16, 40}, Weight: []float64{1, 2.5}, Branch: []int{4, 2}}
	tr := NewTree(2)
	var leaves []int
	for _, parent := range []int{tr.AddChild(0), tr.AddChild(0)} {
		for i := 0; i < 4; i++ {
			leaves = append(leaves, tr.AddChild(parent))
		}
	}
	cp := NewPartition(coarse, spec, tr)
	for c := 0; c < coarse.NumNodes(); c++ {
		cp.Assign(hypergraph.NodeID(c), leaves[c%len(leaves)])
	}
	fp := NewPartition(fine, spec, tr)
	for v := 0; v < n; v++ {
		fp.Assign(hypergraph.NodeID(v), int(cp.LeafOf[clusterOf[v]]))
	}

	var cs CostState
	cs.Reserve(fine, tr, spec)
	for _, p := range []*Partition{cp, fp, cp} {
		cs.Reset(p)
		if want := NewCostState(p).Cost(); math.Float64bits(cs.Cost()) != math.Float64bits(want) {
			t.Fatalf("refilled cost %v, fresh state %v", cs.Cost(), want)
		}
		checkSpanWindows(t, &cs)
		to := []int32{int32(leaves[1]), int32(leaves[6])}
		got := make([]float64, len(to))
		cs.MoveDeltas(3, to, got)
		for i, leaf := range to {
			if want := cs.MoveDelta(3, int(leaf)); got[i] != want {
				t.Fatalf("MoveDeltas[%d] = %v after a refill, MoveDelta %v", i, got[i], want)
			}
		}
	}
	for _, p := range []*Partition{fp, cp} {
		if allocs := testing.AllocsPerRun(20, func() { cs.Reset(p) }); allocs != 0 {
			t.Fatalf("refilling a warm arena over %d nodes allocated %v times", p.H.NumNodes(), allocs)
		}
	}
}

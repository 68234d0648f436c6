package maxflow

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
)

func TestMaxFlowSimplePath(t *testing.T) {
	nw := NewNetwork(3)
	nw.AddArc(0, 1, 5)
	nw.AddArc(1, 2, 3)
	if f, err := nw.MaxFlowCtx(context.Background(), 0, 2); err != nil || f != 3 {
		t.Fatalf("flow = %g (err %v), want 3", f, err)
	}
}

func TestMaxFlowClassicDiamond(t *testing.T) {
	// Classic CLRS-style example with a cross arc.
	nw := NewNetwork(4)
	nw.AddArc(0, 1, 3)
	nw.AddArc(0, 2, 2)
	nw.AddArc(1, 2, 5)
	nw.AddArc(1, 3, 2)
	nw.AddArc(2, 3, 3)
	if f, err := nw.MaxFlowCtx(context.Background(), 0, 3); err != nil || f != 5 {
		t.Fatalf("flow = %g (err %v), want 5", f, err)
	}
}

func TestMaxFlowNeedsResidualReversal(t *testing.T) {
	// Flow must reroute through the middle arc's reverse to reach optimum.
	nw := NewNetwork(6)
	nw.AddArc(0, 1, 1)
	nw.AddArc(0, 2, 1)
	nw.AddArc(1, 3, 1)
	nw.AddArc(2, 3, 1) // decoy
	nw.AddArc(1, 4, 1)
	nw.AddArc(3, 5, 1)
	nw.AddArc(4, 5, 1)
	nw.AddArc(2, 4, 1)
	if f, err := nw.MaxFlowCtx(context.Background(), 0, 5); err != nil || f != 2 {
		t.Fatalf("flow = %g (err %v), want 2", f, err)
	}
}

func TestMinCutSideMatchesFlowValue(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(12)
		type arcRec struct {
			u, v int
			c    float64
		}
		var arcs []arcRec
		nw := NewNetwork(n)
		for i := 0; i < 4*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := float64(1 + rng.Intn(9))
			arcs = append(arcs, arcRec{u, v, c})
			nw.AddArc(u, v, c)
		}
		flow, err := nw.MaxFlowCtx(context.Background(), 0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		side := nw.MinCutSide(0)
		if !side[0] || side[n-1] {
			t.Fatalf("trial %d: cut does not separate s,t", trial)
		}
		var cut float64
		for _, a := range arcs {
			if side[a.u] && !side[a.v] {
				cut += a.c
			}
		}
		if math.Abs(cut-flow) > 1e-9 {
			t.Fatalf("trial %d: cut %g != flow %g", trial, cut, flow)
		}
	}
}

func TestMaxFlowPanicsOnSameST(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork(2).MaxFlowCtx(context.Background(), 1, 1)
}

func TestAddArcRejectsNegativeCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork(2).AddArc(0, 1, -1)
}

// bruteHyperCut enumerates all bipartitions separating the seeds and returns
// the minimum crossing capacity; oracle for HyperCutCtx on tiny hypergraphs.
func bruteHyperCut(h *hypergraph.Hypergraph, src, snk hypergraph.NodeID) float64 {
	n := h.NumNodes()
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		if mask&(1<<src) == 0 || mask&(1<<snk) != 0 {
			continue
		}
		inA := make([]bool, n)
		for v := 0; v < n; v++ {
			inA[v] = mask&(1<<v) != 0
		}
		c, _ := h.CutCapacity(inA)
		if c < best {
			best = c
		}
	}
	return best
}

func TestHyperCutAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(5) // up to 8 nodes: 256 bipartitions
		b := hypergraph.NewBuilder()
		b.AddUnitNodes(n)
		m := 2 + rng.Intn(10)
		for e := 0; e < m; e++ {
			card := 2 + rng.Intn(2)
			perm := rng.Perm(n)[:card]
			pins := make([]hypergraph.NodeID, card)
			for i, p := range perm {
				pins[i] = hypergraph.NodeID(p)
			}
			b.AddNet("", float64(1+rng.Intn(4)), pins...)
		}
		h := b.MustBuild()
		src, snk := hypergraph.NodeID(0), hypergraph.NodeID(n-1)
		got, side, err := HyperCutCtx(context.Background(), h, []hypergraph.NodeID{src}, []hypergraph.NodeID{snk})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteHyperCut(h, src, snk)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: HyperCutCtx %g, brute force %g", trial, got, want)
		}
		if !side[src] || side[snk] {
			t.Fatalf("trial %d: sides wrong", trial)
		}
		// The reported side must realize the reported capacity.
		c, _ := h.CutCapacity(side)
		if math.Abs(c-got) > 1e-9 {
			t.Fatalf("trial %d: side capacity %g != flow %g", trial, c, got)
		}
	}
}

func TestHyperCutMultiSeed(t *testing.T) {
	// chain 0-1-2-3 of unit nets; sources {0,1}, sinks {3} -> cut net (1,2) or (2,3): capacity 1.
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(4)
	b.AddNet("", 1, 0, 1)
	b.AddNet("", 1, 1, 2)
	b.AddNet("", 1, 2, 3)
	h := b.MustBuild()
	cap0, side, err := HyperCutCtx(context.Background(), h, []hypergraph.NodeID{0, 1}, []hypergraph.NodeID{3})
	if err != nil {
		t.Fatal(err)
	}
	if cap0 != 1 {
		t.Fatalf("capacity = %g, want 1", cap0)
	}
	if !side[0] || !side[1] || side[3] {
		t.Fatalf("side = %v", side)
	}
}

func BenchmarkHyperCut(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hb := hypergraph.NewBuilder()
	const n = 500
	hb.AddUnitNodes(n)
	for e := 0; e < 900; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (v + 1) % n
		}
		hb.AddNet("", 1, hypergraph.NodeID(u), hypergraph.NodeID(v))
	}
	h := hb.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HyperCutCtx(context.Background(), h, []hypergraph.NodeID{0}, []hypergraph.NodeID{n - 1})
	}
}

package treemap

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
)

// pathTree builds a path host tree v0-v1-...-v(k-1) with uniform capacity
// and unit edge weights.
func pathTree(k int, capacity int64) *HostTree {
	caps := make([]int64, k)
	for i := range caps {
		caps[i] = capacity
	}
	t := NewHostTree(caps)
	for i := 0; i+1 < k; i++ {
		t.AddEdge(i, i+1, 1)
	}
	return t
}

func TestHostTreeValidate(t *testing.T) {
	if err := pathTree(4, 2).Validate(); err != nil {
		t.Fatal(err)
	}
	// Missing edge -> disconnected.
	bad := NewHostTree([]int64{1, 1, 1})
	bad.AddEdge(0, 1, 1)
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted a forest")
	}
	// Extra edge -> cycle.
	cyc := NewHostTree([]int64{1, 1, 1})
	cyc.AddEdge(0, 1, 1)
	cyc.AddEdge(1, 2, 1)
	cyc.AddEdge(2, 0, 1)
	if err := cyc.Validate(); err == nil {
		t.Fatal("accepted a cycle")
	}
}

func TestHostTreePanics(t *testing.T) {
	ht := NewHostTree([]int64{1, 1})
	for name, f := range map[string]func(){
		"self loop":  func() { ht.AddEdge(0, 0, 1) },
		"bad vertex": func() { ht.AddEdge(0, 5, 1) },
		"neg weight": func() { ht.AddEdge(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNetCostSpansMinimalSubtree(t *testing.T) {
	// Star host: center 0, leaves 1..3, edge weights 1, 2, 3.
	ht := NewHostTree([]int64{10, 10, 10, 10})
	ht.AddEdge(0, 1, 1)
	ht.AddEdge(0, 2, 2)
	ht.AddEdge(0, 3, 3)
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(4)
	b.AddNet("", 1, 0, 1)    // hosts 1,2 below
	b.AddNet("", 2, 1, 2, 3) // hosts 2,3,0... set below
	h := b.MustBuild()
	m := &Mapping{H: h, T: ht, Host: []int32{1, 2, 3, 0}}
	// Net 0 spans hosts {1,2}: path 1-0-2, weight 1+2 = 3.
	if got := m.NetCost(0); math.Abs(got-3) > 1e-12 {
		t.Fatalf("NetCost(0) = %g, want 3", got)
	}
	// Net 1 spans hosts {2,3,0}: edges 0-2 and 0-3, weight 5, capacity 2.
	if got := m.NetCost(1); math.Abs(got-10) > 1e-12 {
		t.Fatalf("NetCost(1) = %g, want 10", got)
	}
	if got := m.Cost(); math.Abs(got-13) > 1e-12 {
		t.Fatalf("Cost = %g, want 13", got)
	}
}

func TestNetCostZeroWhenColocated(t *testing.T) {
	ht := pathTree(3, 10)
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(3)
	b.AddNet("", 5, 0, 1, 2)
	h := b.MustBuild()
	m := &Mapping{H: h, T: ht, Host: []int32{1, 1, 1}}
	if m.Cost() != 0 {
		t.Fatalf("colocated cost = %g", m.Cost())
	}
}

func TestMapTwoCliquesOntoEdge(t *testing.T) {
	// Two 4-cliques bridged once; host = two vertices joined by one edge.
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
	h := b.MustBuild()
	ht := NewHostTree([]int64{4, 4})
	ht.AddEdge(0, 1, 1)
	m, err := MapCtx(context.Background(), h, ht, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Perfect mapping: only the bridge routes, cost 1.
	if m.Cost() != 1 {
		t.Fatalf("cost = %g, want 1", m.Cost())
	}
}

func TestMapRespectsCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 12 + rng.Intn(12)
		b := hypergraph.NewBuilder()
		b.AddUnitNodes(n)
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddNet("", 1, hypergraph.NodeID(u), hypergraph.NodeID(v))
			}
		}
		h := b.MustBuild()
		// A random path tree with just enough capacity.
		k := 3 + rng.Intn(3)
		per := int64(n)/int64(k) + 2
		ht := pathTree(k, per)
		m, err := MapCtx(context.Background(), h, ht, Options{Rng: rng})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestMapInsufficientCapacity(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(5)
	b.AddNet("", 1, 0, 1)
	h := b.MustBuild()
	ht := pathTree(2, 2) // total capacity 4 < 5
	if _, err := MapCtx(context.Background(), h, ht, Options{}); err == nil {
		t.Fatal("accepted overfull design")
	}
}

func TestMapOntoSingleVertex(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(3)
	b.AddNet("", 1, 0, 1, 2)
	h := b.MustBuild()
	ht := NewHostTree([]int64{5})
	m, err := MapCtx(context.Background(), h, ht, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cost() != 0 {
		t.Fatalf("single-vertex cost = %g", m.Cost())
	}
}

// TestMapNeverBeatsBruteForce compares against exhaustive assignment on
// tiny instances.
func TestMapNeverBeatsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 6; trial++ {
		n := 5
		b := hypergraph.NewBuilder()
		b.AddUnitNodes(n)
		for e := 0; e < 7; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddNet("", float64(1+rng.Intn(2)), hypergraph.NodeID(u), hypergraph.NodeID(v))
			}
		}
		h := b.MustBuild()
		ht := pathTree(3, 2)
		m, err := MapCtx(context.Background(), h, ht, Options{Rng: rng})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force over 3^5 assignments with capacity 2 per vertex.
		best := math.Inf(1)
		host := make([]int32, n)
		var rec func(v int, load []int64)
		rec = func(v int, load []int64) {
			if v == n {
				bm := &Mapping{H: h, T: ht, Host: host}
				if c := bm.Cost(); c < best {
					best = c
				}
				return
			}
			for q := 0; q < 3; q++ {
				if load[q]+1 > 2 {
					continue
				}
				load[q]++
				host[v] = int32(q)
				rec(v+1, load)
				load[q]--
			}
		}
		rec(0, make([]int64, 3))
		if m.Cost() < best-1e-9 {
			t.Fatalf("trial %d: heuristic %g beats optimum %g", trial, m.Cost(), best)
		}
	}
}

func TestImproveNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(16)
	for e := 0; e < 40; e++ {
		u, v := rng.Intn(16), rng.Intn(16)
		if u != v {
			b.AddNet("", 1, hypergraph.NodeID(u), hypergraph.NodeID(v))
		}
	}
	h := b.MustBuild()
	ht := pathTree(4, 6)
	m, err := MapCtx(context.Background(), h, ht, Options{Rng: rng, ImprovePasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	costAfterOne := m.Cost()
	m2, err := MapCtx(context.Background(), h, ht, Options{Rng: rand.New(rand.NewSource(23)), ImprovePasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cost() > costAfterOne+1e-9 {
		t.Fatalf("more improvement passes worsened: %g -> %g", costAfterOne, m2.Cost())
	}
}

func BenchmarkMap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hb := hypergraph.NewBuilder()
	const n = 256
	hb.AddUnitNodes(n)
	for e := 0; e < 3*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			hb.AddNet("", 1, hypergraph.NodeID(u), hypergraph.NodeID(v))
		}
	}
	h := hb.MustBuild()
	ht := pathTree(8, n/8+8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MapCtx(context.Background(), h, ht, Options{Rng: rand.New(rand.NewSource(int64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}

package ratiocut

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/hypergraph"
)

func twoCliques(t testing.TB, a, b int) *hypergraph.Hypergraph {
	t.Helper()
	hb := hypergraph.NewBuilder()
	hb.AddUnitNodes(a + b)
	for i := 0; i < a; i++ {
		for j := i + 1; j < a; j++ {
			hb.AddNet("", 1, hypergraph.NodeID(i), hypergraph.NodeID(j))
		}
	}
	for i := 0; i < b; i++ {
		for j := i + 1; j < b; j++ {
			hb.AddNet("", 1, hypergraph.NodeID(a+i), hypergraph.NodeID(a+j))
		}
	}
	hb.AddNet("bridge", 1, 0, hypergraph.NodeID(a))
	return hb.MustBuild()
}

func TestBipartitionFindsBridge(t *testing.T) {
	h := twoCliques(t, 5, 5)
	res := BipartitionCtx(context.Background(), h, Options{Rng: rand.New(rand.NewSource(3))})
	if res.Cut != 1 {
		t.Fatalf("cut = %g, want the single bridge", res.Cut)
	}
	// Optimal ratio: 1/(5·5).
	if math.Abs(res.Ratio-1.0/25) > 1e-12 {
		t.Fatalf("ratio = %g, want 0.04", res.Ratio)
	}
	// Sides are the cliques.
	for v := 1; v < 5; v++ {
		if res.InA[v] != res.InA[0] {
			t.Fatal("clique A split")
		}
	}
	for v := 6; v < 10; v++ {
		if res.InA[v] != res.InA[5] {
			t.Fatal("clique B split")
		}
	}
}

func TestBipartitionAsymmetricCliques(t *testing.T) {
	// The ratio objective prefers the bridge cut even with size 3 vs 9.
	h := twoCliques(t, 3, 9)
	res := BipartitionCtx(context.Background(), h, Options{Rng: rand.New(rand.NewSource(5))})
	if res.Cut != 1 {
		t.Fatalf("cut = %g", res.Cut)
	}
	if math.Abs(res.Ratio-1.0/27) > 1e-12 {
		t.Fatalf("ratio = %g, want 1/27", res.Ratio)
	}
}

func TestRatioFunction(t *testing.T) {
	h := twoCliques(t, 2, 2)
	inA := []bool{true, true, false, false}
	if got := Ratio(h, inA); math.Abs(got-1.0/4) > 1e-12 {
		t.Fatalf("Ratio = %g, want 0.25", got)
	}
	empty := []bool{false, false, false, false}
	if !math.IsInf(Ratio(h, empty), 1) {
		t.Fatal("empty side must be +Inf")
	}
}

func TestBipartitionNeverBeatsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(5)
		hb := hypergraph.NewBuilder()
		hb.AddUnitNodes(n)
		for e := 0; e < 3*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				hb.AddNet("", float64(1+rng.Intn(3)), hypergraph.NodeID(u), hypergraph.NodeID(v))
			}
		}
		h := hb.MustBuild()
		res := BipartitionCtx(context.Background(), h, Options{Rng: rng})
		// Brute-force optimum over all bipartitions.
		best := math.Inf(1)
		inA := make([]bool, n)
		for mask := 1; mask < (1<<n)-1; mask++ {
			for v := 0; v < n; v++ {
				inA[v] = mask&(1<<v) != 0
			}
			if r := Ratio(h, inA); r < best {
				best = r
			}
		}
		if res.Ratio < best-1e-9 {
			t.Fatalf("trial %d: heuristic ratio %g beats optimum %g", trial, res.Ratio, best)
		}
		// The reported ratio must match the reported side.
		if math.Abs(Ratio(h, res.InA)-res.Ratio) > 1e-9 {
			t.Fatalf("trial %d: reported ratio inconsistent with side", trial)
		}
	}
}

func TestBipartitionDeterministicWithSeed(t *testing.T) {
	h := twoCliques(t, 4, 6)
	r1 := BipartitionCtx(context.Background(), h, Options{Rng: rand.New(rand.NewSource(11))})
	r2 := BipartitionCtx(context.Background(), h, Options{Rng: rand.New(rand.NewSource(11))})
	if r1.Ratio != r2.Ratio || r1.Cut != r2.Cut {
		t.Fatal("same seed produced different results")
	}
	for v := range r1.InA {
		if r1.InA[v] != r2.InA[v] {
			t.Fatal("same seed produced different sides")
		}
	}
}

// TestBipartitionPinned pins one full run on a generated ISCAS-class
// circuit at a fixed seed: the cut, its ratio, and a hash over the side
// and the bits of every net length. Any change to the injection schedule,
// the length function or the sweep extraction moves it.
func TestBipartitionPinned(t *testing.T) {
	cs, err := circuits.ByName("c1355")
	if err != nil {
		t.Fatal(err)
	}
	h := circuits.Generate(cs, 1)
	res := BipartitionCtx(context.Background(), h, Options{Rng: rand.New(rand.NewSource(7))})
	fh := fnv.New64a()
	var b [8]byte
	for _, in := range res.InA {
		b[0] = 0
		if in {
			b[0] = 1
		}
		fh.Write(b[:1])
	}
	for _, d := range res.Lengths {
		bits := math.Float64bits(d)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		fh.Write(b[:])
	}
	const (
		wantCut   = 23.0
		wantRatio = 0.00048621681041772363
		wantHash  = uint64(0xfe4937cfa34d7b1c)
	)
	if res.Cut != wantCut || res.Ratio != wantRatio || fh.Sum64() != wantHash {
		t.Errorf("cut %v, ratio %v, hash %#016x; want %v, %v, %#016x",
			res.Cut, res.Ratio, fh.Sum64(), wantCut, wantRatio, wantHash)
	}
}

func TestBipartitionDisconnected(t *testing.T) {
	hb := hypergraph.NewBuilder()
	hb.AddUnitNodes(6)
	hb.AddNet("", 1, 0, 1, 2)
	hb.AddNet("", 1, 3, 4, 5)
	h := hb.MustBuild()
	res := BipartitionCtx(context.Background(), h, Options{Rng: rand.New(rand.NewSource(13))})
	// A zero-cut separation of the components is optimal: ratio 0.
	if res.Cut != 0 || res.Ratio != 0 {
		t.Fatalf("cut=%g ratio=%g, want a free component cut", res.Cut, res.Ratio)
	}
}

func TestBipartitionPanicsOnSingleNode(t *testing.T) {
	one := hypergraph.NewBuilder()
	one.AddNode("", 1)
	h := one.MustBuild() // a netless single node is a valid hypergraph
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BipartitionCtx(context.Background(), h, Options{})
}

func BenchmarkBipartition(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hb := hypergraph.NewBuilder()
	const n = 400
	hb.AddUnitNodes(n)
	for e := 0; e < 3*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			hb.AddNet("", 1, hypergraph.NodeID(u), hypergraph.NodeID(v))
		}
	}
	h := hb.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BipartitionCtx(context.Background(), h, Options{Rng: rand.New(rand.NewSource(int64(i))), Pairs: 2 * n})
	}
}

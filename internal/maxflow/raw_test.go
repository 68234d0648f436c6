package maxflow

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
)

// chainNetwork builds a long residual-heavy network so a cancelled context
// has phases left to skip.
func chainNetwork(n int) *Network {
	nw := NewNetwork(n)
	for v := 0; v+1 < n; v++ {
		nw.AddArc(v, v+1, float64(1+v%3))
	}
	return nw
}

func TestMaxFlowCtxCancelledBeforeStart(t *testing.T) {
	nw := chainNetwork(64)
	ctx, cancel := context.WithCancelCause(context.Background())
	boom := errors.New("deadline budget spent")
	cancel(boom)
	flow, err := nw.MaxFlowCtx(ctx, 0, 63)
	if err == nil {
		t.Fatal("cancelled context returned no error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the cancel cause", err)
	}
	if flow != 0 {
		t.Fatalf("flow %g pushed under a context dead before the first phase", flow)
	}
	// The same computation on a fresh network must still complete under a
	// live context.
	if f, err := chainNetwork(64).MaxFlowCtx(context.Background(), 0, 63); err != nil || f != 1 {
		t.Fatalf("MaxFlowCtx = %g (err %v), want 1 (chain bottleneck)", f, err)
	}
}

func TestMaxFlowCtxMatchesMaxFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(8)
		build := func() *Network {
			r := rand.New(rand.NewSource(int64(trial)))
			nw := NewNetwork(n)
			for e := 0; e < 3*n; e++ {
				u, v := r.Intn(n), r.Intn(n)
				if u != v {
					nw.AddArc(u, v, float64(1+r.Intn(9)))
				}
			}
			return nw
		}
		want, err := build().MaxFlowCtx(context.Background(), 0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		got, err := build().MaxFlowCtx(ctx, 0, n-1)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: live context %g, background %g", trial, got, want)
		}
	}
}

func TestHyperCutCtxCancelled(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(6)
	for v := 0; v+1 < 6; v++ {
		b.AddNet("", 1, hypergraph.NodeID(v), hypergraph.NodeID(v+1))
	}
	h := b.MustBuild()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := HyperCutCtx(ctx, h, []hypergraph.NodeID{0}, []hypergraph.NodeID{5}); err == nil {
		t.Fatal("cancelled context returned no error")
	}
}

// rawCutCapacity is the distinct-pin cut semantics: a net is cut when its
// deduplicated pins land on both sides.
func rawCutCapacity(nets []RawNet, side []bool) float64 {
	var total float64
	for _, e := range nets {
		sawA, sawB := false, false
		for _, v := range e.Pins {
			if side[v] {
				sawA = true
			} else {
				sawB = true
			}
		}
		if sawA && sawB {
			total += e.Cap
		}
	}
	return total
}

// bruteRawCut enumerates every admissible bipartition of the free vertices
// and returns the minimum distinct-pin cut capacity.
func bruteRawCut(n int, nets []RawNet, sources, sinks []int32) float64 {
	fixed := make([]int, n) // 0 free, 1 source, 2 sink
	for _, v := range sources {
		fixed[v] = 1
	}
	for _, v := range sinks {
		fixed[v] = 2
	}
	var free []int
	for v := 0; v < n; v++ {
		if fixed[v] == 0 {
			free = append(free, v)
		}
	}
	best := math.Inf(1)
	side := make([]bool, n)
	for mask := 0; mask < 1<<len(free); mask++ {
		for v := 0; v < n; v++ {
			side[v] = fixed[v] == 1
		}
		for i, v := range free {
			side[v] = mask&(1<<i) != 0
		}
		if c := rawCutCapacity(nets, side); c < best {
			best = c
		}
	}
	return best
}

// TestCutRawDegenerateNets pins the hardened handling of the net shapes a
// corridor contraction produces. Before the hardening these distorted the
// model: a single-pin or duplicate-pin net still built its bridge arc and
// pin cycle (dead weight in every BFS phase, and duplicate pins multiplied
// parallel Inf arcs), and a net pinned to both terminals routed real — for
// Inf-capacity nets unbounded — flow through a cut that is a foregone
// conclusion instead of folding into a constant.
func TestCutRawDegenerateNets(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		nets    []RawNet
		sources []int32
		sinks   []int32
		want    float64
	}{
		{
			name: "single and empty pin lists",
			n:    4,
			nets: []RawNet{
				{Cap: 5, Pins: []int32{2}},
				{Cap: 7, Pins: nil},
				{Cap: 1, Pins: []int32{0, 2}},
				{Cap: 2, Pins: []int32{2, 1}},
			},
			sources: []int32{0}, sinks: []int32{1},
			want: 1,
		},
		{
			name: "duplicate pins collapse to one distinct pin",
			n:    4,
			nets: []RawNet{
				{Cap: 9, Pins: []int32{2, 2, 2}}, // one distinct pin: uncuttable
				{Cap: 1, Pins: []int32{0, 2, 0, 2}},
				{Cap: 2, Pins: []int32{2, 1, 1}},
			},
			sources: []int32{0}, sinks: []int32{1},
			want: 1,
		},
		{
			name: "net pinned to both terminals folds to a constant",
			n:    4,
			nets: []RawNet{
				{Cap: 3, Pins: []int32{0, 1}}, // cut in every bipartition
				{Cap: 1, Pins: []int32{0, 2}},
				{Cap: 2, Pins: []int32{2, 3}},
				{Cap: 1, Pins: []int32{3, 1}},
			},
			sources: []int32{0}, sinks: []int32{1},
			want: 4, // 3 constant + min(1, 2, 1) path... brute confirms
		},
		{
			name: "zero capacity nets vanish",
			n:    3,
			nets: []RawNet{
				{Cap: 0, Pins: []int32{0, 1}},
				{Cap: 0, Pins: []int32{0, 2, 1}},
				{Cap: 4, Pins: []int32{0, 2}},
				{Cap: 2, Pins: []int32{2, 1}},
			},
			sources: []int32{0}, sinks: []int32{1},
			want: 2,
		},
		{
			name: "all pins on one terminal side",
			n:    4,
			nets: []RawNet{
				{Cap: 8, Pins: []int32{0, 2}}, // 2 is also a source
				{Cap: 1, Pins: []int32{2, 3}},
				{Cap: 5, Pins: []int32{3, 1, 1}},
			},
			sources: []int32{0, 2}, sinks: []int32{1},
			want: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, side, err := CutRawCtx(context.Background(), tc.n, tc.nets, tc.sources, tc.sinks)
			if err != nil {
				t.Fatal(err)
			}
			if brute := bruteRawCut(tc.n, tc.nets, tc.sources, tc.sinks); got != brute || got != tc.want {
				t.Fatalf("capacity %g, brute force %g, want %g", got, brute, tc.want)
			}
			for _, v := range tc.sources {
				if !side[v] {
					t.Fatalf("source %d not on source side", v)
				}
			}
			for _, v := range tc.sinks {
				if side[v] {
					t.Fatalf("sink %d on source side", v)
				}
			}
			if realized := rawCutCapacity(tc.nets, side); realized != got {
				t.Fatalf("returned side realizes %g, reported %g", realized, got)
			}
		})
	}
}

func TestCutRawInfiniteConstantNet(t *testing.T) {
	// An Inf-capacity net pinned to both terminals: every separation cuts
	// it, so the answer is +Inf — and it must come back as the folded
	// constant, not by Dinic saturating an unbounded augmenting path.
	nets := []RawNet{
		{Cap: Inf, Pins: []int32{0, 1}},
		{Cap: 1, Pins: []int32{0, 2, 1}},
	}
	got, _, err := CutRawCtx(context.Background(), 3, nets, []int32{0}, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("capacity %g, want +Inf", got)
	}
}

func TestCutRawValidation(t *testing.T) {
	ctx := context.Background()
	if _, _, err := CutRawCtx(ctx, 3, nil, []int32{0}, []int32{0}); err == nil {
		t.Fatal("source==sink accepted")
	}
	if _, _, err := CutRawCtx(ctx, 3, nil, []int32{5}, []int32{0}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, _, err := CutRawCtx(ctx, 3, []RawNet{{Cap: 1, Pins: []int32{0, 9}}}, []int32{0}, []int32{1}); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
	if _, _, err := CutRawCtx(ctx, 3, []RawNet{{Cap: -1, Pins: []int32{0, 1}}}, []int32{0}, []int32{1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, _, err := CutRawCtx(ctx, 3, []RawNet{{Cap: math.NaN(), Pins: []int32{0, 1}}}, []int32{0}, []int32{1}); err == nil {
		t.Fatal("NaN capacity accepted")
	}
}

// TestCutRawAgainstBruteForce sweeps random small instances laced with the
// degenerate shapes — duplicate pins, singletons, terminal-only nets — and
// checks the flow answer and the returned side against exhaustive
// enumeration under distinct-pin semantics.
func TestCutRawAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(6)
		m := 1 + rng.Intn(10)
		nets := make([]RawNet, m)
		for e := range nets {
			k := rng.Intn(5)
			pins := make([]int32, k)
			for i := range pins {
				pins[i] = int32(rng.Intn(n)) // duplicates welcome
			}
			nets[e] = RawNet{Cap: float64(rng.Intn(5)), Pins: pins}
		}
		src := []int32{int32(rng.Intn(n))}
		snk := []int32{int32((int(src[0]) + 1 + rng.Intn(n-1)) % n)}
		got, side, err := CutRawCtx(context.Background(), n, nets, src, snk)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteRawCut(n, nets, src, snk)
		if got != want {
			t.Fatalf("trial %d: capacity %g, brute force %g (n=%d nets=%+v src=%v snk=%v)",
				trial, got, want, n, nets, src, snk)
		}
		if realized := rawCutCapacity(nets, side); realized != got {
			t.Fatalf("trial %d: side realizes %g, reported %g", trial, realized, got)
		}
		if !side[src[0]] || side[snk[0]] {
			t.Fatalf("trial %d: terminals misplaced", trial)
		}
	}
}

// randomRawInstance draws a corridor-shaped min-cut instance: n vertices,
// one or two terminals per side, and nets with duplicate pins, zero
// capacities and pins folded onto the terminals.
func randomRawInstance(rng *rand.Rand, n int) (nets []RawNet, sources, sinks []int32) {
	perm := rng.Perm(n)
	sources = []int32{int32(perm[0])}
	sinks = []int32{int32(perm[1])}
	if n > 4 && rng.Intn(2) == 0 {
		sources = append(sources, int32(perm[2]))
		sinks = append(sinks, int32(perm[3]))
	}
	for e := 2 * n; e > 0; e-- {
		pins := make([]int32, 1+rng.Intn(5))
		for i := range pins {
			pins[i] = int32(rng.Intn(n))
		}
		c := float64(rng.Intn(6))
		nets = append(nets, RawNet{Cap: c, Pins: pins})
	}
	return nets, sources, sinks
}

// TestCutWorkspaceReuseMatchesFresh runs one workspace over a sequence of
// instances that grow and shrink, so every array it keeps holds a larger
// instance's leftovers at some point. Each cut must return exactly the
// capacity and side a fresh CutRawCtx returns.
func TestCutWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var w CutWorkspace
	for i := 0; i < 300; i++ {
		n := 3 + rng.Intn(40)
		if i%7 == 3 {
			n += 120
		}
		nets, sources, sinks := randomRawInstance(rng, n)
		wantCap, wantSide, err := CutRawCtx(context.Background(), n, nets, sources, sinks)
		if err != nil {
			t.Fatal(err)
		}
		gotCap, gotSide, err := w.CutCtx(context.Background(), n, nets, sources, sinks)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotCap) != math.Float64bits(wantCap) {
			t.Fatalf("instance %d (n=%d): reused workspace cut %v, fresh %v", i, n, gotCap, wantCap)
		}
		if len(gotSide) != n {
			t.Fatalf("instance %d: side has %d entries for %d vertices", i, len(gotSide), n)
		}
		for v := range wantSide {
			if gotSide[v] != wantSide[v] {
				t.Fatalf("instance %d (n=%d): vertex %d on side %v, fresh cut says %v", i, n, v, gotSide[v], wantSide[v])
			}
		}
	}
}

// TestCutWorkspaceWarmCutAllocatesNothing pins the reuse: once a workspace
// has cut an instance, cutting it again allocates nothing.
func TestCutWorkspaceWarmCutAllocatesNothing(t *testing.T) {
	nets, sources, sinks := randomRawInstance(rand.New(rand.NewSource(5)), 60)
	var w CutWorkspace
	ctx := context.Background()
	if _, _, err := w.CutCtx(ctx, 60, nets, sources, sinks); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := w.CutCtx(ctx, 60, nets, sources, sinks); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a cut through a warm workspace allocated %v times", allocs)
	}
}

package fm

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
)

// pathGraph builds a path of n unit nodes, v connected to v+1.
func pathGraph(n int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(n)
	for v := 0; v < n-1; v++ {
		b.AddNet("", 1, hypergraph.NodeID(v), hypergraph.NodeID(v+1))
	}
	return b.MustBuild()
}

// Under a background context the Ctx entry points must reproduce the
// pinned cut and side assignment: the ctxpoll fixes may not perturb golden
// results.
func TestRefineBipartitionCtxBackgroundMatchesFacade(t *testing.T) {
	h := twoCliquesBridge(t)
	inA := make([]bool, 8)
	for v := 0; v < 8; v += 2 {
		inA[v] = true
	}
	cut := RefineBipartitionCtx(context.Background(), h, inA, 3, 5, BiOptions{Rng: rand.New(rand.NewSource(11))})
	if cut != 1 {
		t.Fatalf("cut = %g, want 1 (the bridge)", cut)
	}
	for v, want := range []bool{false, false, false, false, true, true, true, true} {
		if inA[v] != want {
			t.Fatalf("node %d on side A = %v, want %v", v, inA[v], want)
		}
	}
}

// A context cancelled before the first pass must leave the bipartition
// untouched: no pass ran, so no move was applied.
func TestRefineBipartitionCtxCancelledUpfront(t *testing.T) {
	h := twoCliquesBridge(t)
	inA := make([]bool, 8)
	for v := 0; v < 8; v += 2 {
		inA[v] = true
	}
	want := append([]bool(nil), inA...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	RefineBipartitionCtx(ctx, h, inA, 3, 5, BiOptions{})
	for v := range want {
		if inA[v] != want[v] {
			t.Fatalf("cancelled refinement moved node %d", v)
		}
	}
}

func TestGrowSeedSideCtxBackgroundMatchesFacade(t *testing.T) {
	h := pathGraph(1000)
	inA := GrowSeedSideCtx(context.Background(), h, 0, 600)
	for v := range inA {
		if want := v < 600; inA[v] != want {
			t.Fatalf("node %d on side A = %v, want %v (the path's first 600 nodes)", v, inA[v], want)
		}
	}
}

// A cancelled context stops the breadth-first growth at the next masked
// poll (every 256 dequeues) instead of sweeping the whole graph.
func TestGrowSeedSideCtxCancelledStopsEarly(t *testing.T) {
	h := pathGraph(10000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inA := GrowSeedSideCtx(ctx, h, 0, h.TotalSize())
	grown := 0
	for _, in := range inA {
		if in {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("seed side empty: the seed itself must always be placed")
	}
	// The poll granularity is 256 dequeues; well before the 10000-node sweep.
	if grown > 1024 {
		t.Fatalf("cancelled growth placed %d nodes; expected an early stop near the 256-dequeue poll", grown)
	}
}

// A done context stops the recursion before the first split: every node
// lands in one block, whatever its size, and the caller sees ctx.Err().
func TestRecursiveBisectionCancelledStopsSplitting(t *testing.T) {
	h := pathGraph(1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	blockOf, k := RecursiveBisection(ctx, h, 10, BiOptions{})
	if k != 1 {
		t.Fatalf("blocks = %d under a cancelled context, want 1", k)
	}
	for v, blk := range blockOf {
		if blk != 0 {
			t.Fatalf("node %d in block %d, want 0", v, blk)
		}
	}
}

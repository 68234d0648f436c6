package htp

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/anytime"
	"repro/internal/hypergraph"
)

// Regression: when the randomly drawn seed node alone exceeded ub, the
// seed-prefix fallback returned it anyway — a block violating C_0 that the
// builder then trusted. findCut must reseed onto a node that fits.
func TestFindCutOversizedSeedReseeds(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddNode("lump", 10)
	b.AddNode("", 1)
	b.AddNode("", 1)
	b.AddNode("", 1)
	b.AddNet("", 1, 0, 1)
	b.AddNet("", 1, 1, 2)
	b.AddNet("", 1, 2, 3)
	h := b.MustBuild()
	d := []float64{1, 1, 1}
	const ub = 3
	for trial := int64(0); trial < 64; trial++ {
		rng := rand.New(rand.NewSource(trial))
		piece := new(cutScratch).findCut(h, d, 2, ub, rng)
		if len(piece) == 0 {
			t.Fatalf("trial %d: empty piece though three unit nodes fit", trial)
		}
		var size int64
		for _, v := range piece {
			size += h.NodeSize(v)
		}
		if size > ub {
			t.Fatalf("trial %d: piece %v has size %d > ub %d", trial, piece, size, ub)
		}
	}
}

// When every node exceeds ub no non-empty subset can respect the bound;
// findCut must say so with nil rather than return a violating singleton.
func TestFindCutAllNodesOversized(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddNode("", 10)
	b.AddNode("", 10)
	b.AddNet("", 1, 0, 1)
	h := b.MustBuild()
	for trial := int64(0); trial < 8; trial++ {
		rng := rand.New(rand.NewSource(trial))
		if piece := new(cutScratch).findCut(h, []float64{1}, 2, 3, rng); piece != nil {
			t.Fatalf("trial %d: got piece %v, want nil", trial, piece)
		}
	}
}

// The builder must turn an engine that produces no feasible block into
// ErrOversizedNode instead of looping forever re-carving nothing.
func TestBuildRejectsEmptyEnginePiece(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := fourClusters(t, rng, 2, 4, 1.0)
	spec := binarySpec(t, h, 2)
	d := make([]float64, h.NumNets())
	empty := func(*hypergraph.Hypergraph, []float64, int64, int64, *rand.Rand) []hypergraph.NodeID {
		return nil
	}
	_, err := BuildCtx(context.Background(), h, spec, d, BuildOptions{Rng: rng, Engine: empty})
	if err == nil {
		t.Fatal("empty engine piece accepted")
	}
	if !errors.Is(err, anytime.ErrOversizedNode) {
		t.Fatalf("err = %v, want ErrOversizedNode", err)
	}
}

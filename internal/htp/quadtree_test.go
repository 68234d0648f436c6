package htp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
)

// quadSpec builds a height-2 hierarchy with K = 4 everywhere — the
// "board of four chips, chip of four blocks" shape common in multi-FPGA
// systems; the paper's formulation allows arbitrary K_l even though its
// experiments fix K = 2.
func quadSpec(total int64) hierarchy.Spec {
	c0 := total/16 + 2
	return hierarchy.Spec{
		Capacity: []int64{c0, 4 * c0},
		Weight:   []float64{1, 3},
		Branch:   []int{4, 4},
	}
}

func TestFlowOnQuadTree(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	h := fourClusters(t, rng, 16, 4, 0.9) // 16 natural blocks of 4
	spec := quadSpec(h.TotalSize())
	res, err := FlowCtx(context.Background(), h, spec, FlowOptions{Iterations: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	// Branch bounds: no vertex exceeds 4 children (Validate checks this,
	// but assert explicitly since K=4 is the point of the test).
	tr := res.Partition.Tree
	for q := 0; q < tr.NumVertices(); q++ {
		if len(tr.Children(q)) > 4 {
			t.Fatalf("vertex %d has %d children", q, len(tr.Children(q)))
		}
	}
}

func TestBaselinesOnQuadTree(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	h := fourClusters(t, rng, 16, 4, 0.8)
	spec := quadSpec(h.TotalSize())
	r, err := RFMCtx(context.Background(), h, spec, RFMOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatalf("RFM: %v", err)
	}
	g, err := GFMCtx(context.Background(), h, spec, GFMOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Partition.Validate(); err != nil {
		t.Fatalf("GFM: %v", err)
	}
}

func TestMixedBranchHierarchy(t *testing.T) {
	// Asymmetric: two boards (K_2 = 2) each holding up to 4 chips
	// (K_1 = 4).
	rng := rand.New(rand.NewSource(227))
	h := fourClusters(t, rng, 8, 5, 0.8)
	total := h.TotalSize()
	spec := hierarchy.Spec{
		Capacity: []int64{total/8 + 2, total/2 + 4},
		Weight:   []float64{1, 5},
		Branch:   []int{4, 2},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := FlowCtx(context.Background(), h, spec, FlowOptions{Iterations: 2, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	tr := res.Partition.Tree
	if got := len(tr.Children(tr.Root())); got > 2 {
		t.Fatalf("root has %d children, K_2 = 2", got)
	}
	for _, c := range tr.Children(tr.Root()) {
		if got := len(tr.Children(int(c))); got > 4 {
			t.Fatalf("level-1 vertex has %d children, K_1 = 4", got)
		}
	}
}

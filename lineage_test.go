// Facade tests for the related-formulation APIs (ratio cut and fixed-tree
// mapping) and FLOW's concurrent iterations.
package repro_test

import (
	"math"
	"runtime"
	"testing"

	"repro"
)

func TestRatioCutFacade(t *testing.T) {
	b := repro.NewNetlistBuilder()
	for i := 0; i < 10; i++ {
		b.AddNode("", 1)
	}
	for c := 0; c < 2; c++ {
		base := repro.NodeID(c * 5)
		for i := repro.NodeID(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddNet("", 1, base+i, base+j)
			}
		}
	}
	b.AddNet("bridge", 1, 0, 5)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := repro.RatioCut(h, repro.RatioCutOptions{})
	if res.Cut != 1 {
		t.Fatalf("cut = %g, want the bridge", res.Cut)
	}
	if math.Abs(res.Ratio-1.0/25) > 1e-12 {
		t.Fatalf("ratio = %g", res.Ratio)
	}
}

func TestMapOntoTreeFacade(t *testing.T) {
	h := smallCircuit(t)
	per := h.TotalSize()/4 + 8
	ht := repro.NewHostTree([]int64{per, per, per, per})
	ht.AddEdge(0, 1, 1)
	ht.AddEdge(1, 2, 1)
	ht.AddEdge(2, 3, 1)
	m, err := repro.MapOntoTree(h, ht, repro.TreeMapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Cost() <= 0 {
		t.Fatalf("mapping cost = %g; a connected design must route something", m.Cost())
	}
}

func TestParallelFlowFacade(t *testing.T) {
	h := smallCircuit(t)
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 3, repro.GeometricWeights(3, 2), 1.15)
	if err != nil {
		t.Fatal(err)
	}
	// FLOW sizes its iteration pool from GOMAXPROCS; the result must not
	// depend on it.
	flowAt := func(procs int) *repro.Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := repro.Flow(h, spec, repro.FlowOptions{Iterations: 3, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := flowAt(1), flowAt(3)
	if seq.Cost != par.Cost {
		t.Fatalf("concurrent %g != one worker %g", par.Cost, seq.Cost)
	}
}

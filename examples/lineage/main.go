// Lineage: the two formulations the paper positions HTP against (§1), on
// one netlist.
//
//  1. Ratio cut (Yeh-Cheng-Lin / Lang-Rao): size balance folded into the
//     objective cut/(s(A)·s(B)) — found here by the same stochastic
//     flow-injection machinery the paper adapts for spreading metrics.
//  2. Vijayan's min-cost tree partitioning: the tree is FIXED and every
//     vertex holds logic; nets pay the routing cost of their minimal
//     spanning subtree.
//
// Contrast both with HTP, where the hierarchy is flexible but size bounds
// are explicit per level.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	cs := repro.CircuitSpec{Name: "demo", Gates: 300, PIs: 24, POs: 12}
	h := repro.GenerateCircuit(cs, 11)
	fmt.Printf("netlist: %s\n\n", repro.ComputeNetlistStats(h))

	// 1) Ratio cut: no size constraints at all; the objective finds the
	// natural bottleneck.
	rc := repro.RatioCut(h, repro.RatioCutOptions{})
	var sizeA int64
	for v := 0; v < h.NumNodes(); v++ {
		if rc.InA[v] {
			sizeA++
		}
	}
	fmt.Printf("ratio cut:        cut=%.0f split=%d|%d ratio=%.3g\n",
		rc.Cut, sizeA, h.TotalSize()-sizeA, rc.Ratio)

	// 2) Fixed-tree mapping: an H-tree of 7 host vertices (a root board
	// with two daughter cards, each with two sockets), logic allowed
	// everywhere, capacity tapering toward the leaves.
	caps := []int64{80, 60, 60, 45, 45, 45, 45}
	ht := repro.NewHostTree(caps)
	ht.AddEdge(0, 1, 2) // board -> card links are expensive
	ht.AddEdge(0, 2, 2)
	ht.AddEdge(1, 3, 1)
	ht.AddEdge(1, 4, 1)
	ht.AddEdge(2, 5, 1)
	ht.AddEdge(2, 6, 1)
	mapping, err := repro.MapOntoTree(h, ht, repro.TreeMapOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fixed-tree map:   routing cost=%.0f over 7 host vertices\n", mapping.Cost())

	// 3) HTP: flexible hierarchy with explicit per-level bounds.
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 3, repro.GeometricWeights(3, 2), 1.15)
	if err != nil {
		log.Fatal(err)
	}
	res, err := repro.Flow(h, spec, repro.FlowOptions{Iterations: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HTP (FLOW):       pin cost=%.0f across %d levels\n",
		res.Cost, len(res.Partition.LevelCosts()))
	fmt.Println("\nHTP hierarchy:")
	fmt.Print(res.Partition.String())
}

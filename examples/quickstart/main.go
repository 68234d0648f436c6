// Quickstart: build a small netlist with the public API, partition it into
// a two-level hierarchy with the paper's FLOW algorithm, and inspect the
// result.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()
	// A netlist of two 4-gate blocks joined by one wire: the structure any
	// hierarchy-finding partitioner should recover.
	b := repro.NewNetlistBuilder()
	for i := 0; i < 8; i++ {
		b.AddNode(fmt.Sprintf("g%d", i), 1)
	}
	for blk := 0; blk < 2; blk++ {
		base := repro.NodeID(blk * 4)
		for i := repro.NodeID(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddNet("", 1, base+i, base+j)
			}
		}
	}
	b.AddNet("bridge", 1, 0, 4)
	h, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Hierarchy: full binary tree of height 2, weights w = (1, 2), 10%
	// slack — leaves hold ~2 nodes, level-1 blocks ~4.
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 2, repro.GeometricWeights(2, 2), 1.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spec: C=%v K=%v w=%v\n", spec.Capacity, spec.Branch, spec.Weight)

	res, err := repro.FlowCtx(ctx, h, spec, repro.FlowOptions{Iterations: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FLOW cost: %.0f\n", res.Cost)
	fmt.Printf("per-level costs: %v\n", res.Partition.LevelCosts())
	fmt.Println("partition tree:")
	fmt.Print(res.Partition.String())

	// Where did each gate land?
	for v := 0; v < h.NumNodes(); v++ {
		fmt.Printf("  %s -> leaf %d\n", h.NodeName(repro.NodeID(v)), res.Partition.LeafOf[v])
	}
}

// FPGA prototyping: the application that motivated hierarchical tree
// partitioning (the first author worked at Aptix, a multi-FPGA prototyping
// company). A logic design must be split across a hardware hierarchy —
// boards hold FPGAs, FPGAs hold logic — and crossing a board boundary costs
// far more I/O resources than crossing between FPGAs on one board. HTP
// captures this with level weights: w_board >> w_fpga.
//
// This example partitions a generated circuit onto 2 boards x 2 FPGAs x 2
// regions, compares FLOW with the baselines, refines the best, and prints
// the per-level I/O budget the way a prototyping engineer would read it.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()
	// A mid-size design: the c2670-class synthetic netlist.
	spec0, err := repro.CircuitByName("c2670")
	if err != nil {
		log.Fatal(err)
	}
	design := repro.GenerateCircuit(spec0, 7)
	st := repro.ComputeNetlistStats(design)
	fmt.Printf("design: %s\n\n", st)

	// Hardware hierarchy, bottom-up: level 0 = FPGA region (cheap wires,
	// w=1), level 1 = FPGA (device pins, w=4), level 2 = board (connector
	// pins, w=20). Height-3 binary tree: 8 regions, 4 FPGAs, 2 boards.
	weights := []float64{1, 4, 20}
	spec, err := repro.BinaryTreeSpec(design.TotalSize(), 3, weights, 1.15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hardware: 2 boards x 2 FPGAs x 2 regions; capacities %v, pin weights %v\n\n",
		spec.Capacity, spec.Weight)

	type entry struct {
		name string
		res  *repro.Result
	}
	var entries []entry

	flow, err := repro.FlowCtx(ctx, design, spec, repro.FlowOptions{Iterations: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	entries = append(entries, entry{"FLOW", flow})

	rfm, err := repro.RFMCtx(ctx, design, spec, repro.RFMOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	entries = append(entries, entry{"RFM", rfm})

	gfm, err := repro.GFMCtx(ctx, design, spec, repro.GFMOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	entries = append(entries, entry{"GFM", gfm})

	fmt.Println("algorithm  total I/O cost   region-level   fpga-level   board-level")
	best := entries[0]
	for _, e := range entries {
		lc := e.res.Partition.LevelCosts()
		fmt.Printf("%-9s %15.0f %14.0f %12.0f %13.0f\n", e.name, e.res.Cost, lc[0], lc[1], lc[2])
		if e.res.Cost < best.res.Cost {
			best = e
		}
	}

	// Refine the winner with FM-based hierarchical improvement.
	before := best.res.Cost
	after, improved := repro.RefineCtx(ctx, best.res.Partition, repro.RefineOptions{})
	fmt.Printf("\nbest constructive: %s (%.0f); after FM refinement: %.0f (saved %.0f, %.1f%%)\n",
		best.name, before, after, improved, 100*improved/before)

	// Validate against hardware limits before "tape-out".
	if err := best.res.Partition.Validate(); err != nil {
		log.Fatalf("partition violates hardware limits: %v", err)
	}
	fmt.Println("\nfinal assignment is feasible for the hardware hierarchy:")
	fmt.Print(best.res.Partition.String())
}

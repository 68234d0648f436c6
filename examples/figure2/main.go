// Figure 2: the paper's worked example end to end — the 16-node graph with
// C = (4, 8) and w = (1, 2), its optimal partition, the spreading metric it
// induces (Lemma 1), the exact LP lower bound (Lemma 2), and the FLOW
// algorithm rediscovering the optimum.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()
	h, spec, groups := repro.Figure2()
	fmt.Printf("graph: %d nodes, %d unit edges\n", h.NumNodes(), h.NumNets())
	fmt.Printf("hierarchy: C=%v, w=%v (Figure 2a)\n", spec.Capacity, spec.Weight)

	// The intended optimal partition: leaves = the four 4-node groups.
	opt := repro.Figure2Partition()
	fmt.Printf("\noptimal partition cost: %.0f\n", opt.Cost())
	for g, nodes := range groups {
		fmt.Printf("  leaf %d: nodes %v\n", g, nodes)
	}

	// Lemma 1: the partition induces a feasible spreading metric whose LP
	// value equals the cost; cut edges carry d = 2 or d = 6 as in the
	// figure's annotation.
	m := repro.MetricFromPartition(opt)
	if bad := repro.CheckSpreadingMetric(m, spec); bad != nil {
		log.Fatalf("Lemma 1 violated: %v", bad)
	}
	counts := map[float64]int{}
	for e := repro.NetID(0); int(e) < h.NumNets(); e++ {
		counts[m.Length(e)]++
	}
	fmt.Printf("\ninduced metric (Lemma 1): value %.0f, labels %v\n", m.Value(), counts)

	// Lemma 2: the exact LP optimum lower-bounds every partition; on this
	// example it is tight, certifying optimality.
	lb, err := repro.ExactLowerBoundCtx(ctx, h, spec, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact LP lower bound (Lemma 2): %.2f, converged=%v\n", lb.Value, lb.Converged)

	// FLOW rediscovers the optimum from scratch.
	res, err := repro.FlowCtx(ctx, h, spec, repro.FlowOptions{Iterations: 8, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFLOW finds cost: %.0f\n", res.Cost)
	fmt.Print(res.Partition.String())
}

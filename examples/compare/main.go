// Compare: the three constructive algorithms and their "+"-refined variants
// head to head on one generated benchmark circuit — a miniature of the
// paper's Tables 2 and 3 — plus the spreading-metric diagnostics that
// explain FLOW's behaviour (metric value, injection statistics).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro"
)

func main() {
	ctx := context.Background()
	name := flag.String("circuit", "c1355", "ISCAS85-class circuit name")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	cs, err := repro.CircuitByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	h := repro.GenerateCircuit(cs, *seed)
	fmt.Printf("%s: %s\n\n", cs.Name, repro.ComputeNetlistStats(h))

	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 4, repro.GeometricWeights(4, 2), 1.1)
	if err != nil {
		log.Fatal(err)
	}

	// The spreading metric on its own: how much work did Algorithm 2 do?
	m, stats, err := repro.ComputeSpreadingMetricCtx(ctx, h, spec, repro.InjectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spreading metric: LP value %.1f; %d injections over %d rounds (converged=%v)\n\n",
		m.Value(), stats.Injections, stats.Rounds, stats.Converged)

	// Each variant is one pipeline: a constructor, plus the FM step for "+".
	for i, algo := range []string{"gfm", "rfm", "flow", "gfm+", "rfm+", "flow+"} {
		if i == 3 {
			fmt.Println()
		}
		name := strings.ToUpper(algo)
		t0 := time.Now()
		res, initial, err := repro.PipelineCtx(ctx, h, spec, repro.Pipeline{
			Algo: algo, Seed: *seed, Flow: repro.FlowOptions{Iterations: 4}})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		el := time.Since(t0).Seconds()
		if err := res.Partition.Validate(); err != nil {
			log.Fatalf("%s produced an invalid partition: %v", name, err)
		}
		if initial != res.Cost {
			fmt.Printf("%-6s cost %7.0f  (constructive %7.0f, FM saved %4.1f%%)  %5.2fs\n",
				name, res.Cost, initial, 100*(initial-res.Cost)/initial, el)
		} else {
			fmt.Printf("%-6s cost %7.0f  %38s %5.2fs\n", name, res.Cost, "", el)
		}
	}
}

package repro_test

import (
	"context"
	"fmt"
	"math"

	"repro"
)

// ExampleFlowCtx partitions the paper's worked example and prints the cost
// it finds — the LP-certified optimum.
func ExampleFlowCtx() {
	h, spec, _ := repro.Figure2()
	res, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("cost %.0f\n", res.Cost)
	// Output: cost 20
}

// ExampleBinaryTreeSpec builds the paper's experimental hierarchy: a full
// binary tree with doubling level weights.
func ExampleBinaryTreeSpec() {
	spec, err := repro.BinaryTreeSpec(160, 2, repro.GeometricWeights(2, 2), 1.0)
	if err != nil {
		panic(err)
	}
	fmt.Println("C =", spec.Capacity)
	fmt.Println("K =", spec.Branch)
	fmt.Println("w =", spec.Weight)
	// Output:
	// C = [40 80]
	// K = [2 2]
	// w = [1 2]
}

// ExampleExactLowerBoundCtx certifies a partition against the
// spreading-metric LP optimum (Lemma 2).
func ExampleExactLowerBoundCtx() {
	h, spec, _ := repro.Figure2()
	lb, err := repro.ExactLowerBoundCtx(context.Background(), h, spec, 0)
	if err != nil {
		panic(err)
	}
	opt := repro.Figure2Partition()
	tight := math.Abs(lb.Value-opt.Cost()) < 1e-6
	fmt.Printf("bound %.0f <= cost %.0f (tight: %v)\n", lb.Value, opt.Cost(), tight)
	// Output: bound 20 <= cost 20 (tight: true)
}

// ExampleMetricFromPartition derives the spreading metric a partition
// induces (Lemma 1): cut edges carry their per-capacity cost as length.
func ExampleMetricFromPartition() {
	opt := repro.Figure2Partition()
	m := repro.MetricFromPartition(opt)
	fmt.Printf("LP value %.0f equals partition cost %.0f\n", m.Value(), opt.Cost())
	// Output: LP value 20 equals partition cost 20
}

// Facade-level tests of the anytime contract: *Ctx entry points, stop
// reasons, and the error taxonomy, exercised exactly as a downstream user
// would.
package repro_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro"
)

func TestFacadeCtxVariantsAndStopReasons(t *testing.T) {
	h := smallCircuit(t)
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 3, repro.GeometricWeights(3, 2), 1.15)
	if err != nil {
		t.Fatal(err)
	}

	res, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != repro.StopConverged {
		t.Fatalf("Stop = %q, want %q", res.Stop, repro.StopConverged)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repro.FlowCtx(dead, h, spec, repro.FlowOptions{}); !errors.Is(err, repro.ErrNoPartition) {
		t.Fatalf("dead context should yield ErrNoPartition, got: %v", err)
	}
	if _, err := repro.RFMCtx(dead, h, spec, repro.RFMOptions{}); !errors.Is(err, repro.ErrNoPartition) {
		t.Fatalf("RFMCtx on dead context: %v", err)
	}
	if _, err := repro.GFMCtx(dead, h, spec, repro.GFMOptions{}); !errors.Is(err, repro.ErrNoPartition) {
		t.Fatalf("GFMCtx on dead context: %v", err)
	}

	// RefineCtx and RatioCutCtx stay valid under a cancelled context.
	cost, _ := repro.RefineCtx(dead, res.Partition, repro.RefineOptions{})
	if cost != res.Partition.Cost() {
		t.Fatalf("cancelled refinement reported %g, partition says %g", cost, res.Partition.Cost())
	}
	rc := repro.RatioCutCtx(dead, h, repro.RatioCutOptions{})
	var a, b int
	for _, inA := range rc.InA {
		if inA {
			a++
		} else {
			b++
		}
	}
	if a == 0 || b == 0 {
		t.Fatalf("ratio cut degenerate under cancellation: %d/%d", a, b)
	}

	// ExactLowerBoundCtx returns the bound proven so far, never an error,
	// when interrupted.
	lb, err := repro.ExactLowerBoundCtx(dead, h, spec, 0)
	if err != nil {
		t.Fatalf("interrupted lower bound errored: %v", err)
	}
	if lb.Stop != repro.StopCancelled {
		t.Fatalf("lower bound Stop = %q, want %q", lb.Stop, repro.StopCancelled)
	}
}

func TestFacadeDeadlineBestSoFar(t *testing.T) {
	cs := repro.CircuitSpec{Name: "mid", Gates: 2000, PIs: 32, POs: 16}
	h := repro.GenerateCircuit(cs, 7)
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 3, repro.GeometricWeights(3, 2), 1.15)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := repro.FlowCtx(ctx, h, spec, repro.FlowOptions{Iterations: 64, Seed: 5})
	if err != nil {
		t.Fatalf("best-so-far expected at deadline, got: %v", err)
	}
	if res.Stop != repro.StopDeadline {
		t.Fatalf("Stop = %q, want %q", res.Stop, repro.StopDeadline)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatalf("best-so-far partition invalid: %v", err)
	}
}

// GFM's first phase, the recursive FM bisection, takes most of its run time,
// so a deadline must stop the bisection itself: the service's gfm rung hands
// GFMCtx a deadline and must not run on into the next rung's budget. A live
// context leaves the result unchanged.
func TestFacadeGFMDeadlineStopsBisection(t *testing.T) {
	h := repro.GenerateCircuit(repro.ScaledCircuit(16384), 1)
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 4, repro.GeometricWeights(4, 2), 1.15)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res, err := repro.GFMCtx(context.Background(), h, spec, repro.GFMOptions{})
	full := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 249469 {
		t.Fatalf("GFM cost %g, want 249469", res.Cost)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 = time.Now()
	_, err = repro.GFMCtx(ctx, h, spec, repro.GFMOptions{})
	bounded := time.Since(t0)
	if !errors.Is(err, repro.ErrNoPartition) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrNoPartition and DeadlineExceeded", err)
	}
	if bounded >= full/2 {
		t.Fatalf("GFMCtx under a 50ms deadline took %v, unbounded %v: want under half", bounded, full)
	}
}

func TestFacadeErrorTaxonomy(t *testing.T) {
	// Oversized node: one node bigger than C_0.
	b := repro.NewNetlistBuilder()
	b.AddNode("huge", 100)
	b.AddNode("tiny", 1)
	b.AddNet("n", 1, 0, 1)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 2, repro.GeometricWeights(2, 2), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := repro.ComputeSpreadingMetricCtx(context.Background(), h, spec, repro.InjectOptions{}); !errors.Is(err, repro.ErrOversizedNode) {
		t.Fatalf("want ErrOversizedNode, got: %v", err)
	}

	// Invalid spec: negative weight.
	bad := spec
	bad.Weight = []float64{-1, 1}
	if err := bad.Validate(); !errors.Is(err, repro.ErrInvalidSpec) {
		t.Fatalf("want ErrInvalidSpec, got: %v", err)
	}

	// Infeasible tree mapping: capacity short of the design size.
	small := repro.NewHostTree([]int64{1, 1})
	small.AddEdge(0, 1, 1)
	if _, err := repro.MapOntoTreeCtx(context.Background(), h, small, repro.TreeMapOptions{}); !errors.Is(err, repro.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got: %v", err)
	}
}

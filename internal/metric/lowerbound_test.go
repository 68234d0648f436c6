package metric

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
)

func TestExactLowerBoundChain(t *testing.T) {
	// Chain of 4 with C = (1, 4), w = (1, 1): the k=2 constraints force
	// every node's nearest neighbor to distance >= g(2) = 2, hence every
	// edge length >= 2; the LP optimum is d = (2,2,2), value 6.
	h := chainGraph(t, 4)
	spec := hierarchy.Spec{Capacity: []int64{1, 4}, Weight: []float64{1, 1}, Branch: []int{2, 4}}
	res, err := ExactLowerBoundCtx(context.Background(), h, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge after %d cuts", res.Cuts)
	}
	if math.Abs(res.Value-6) > 1e-6 {
		t.Fatalf("LP optimum = %g, want 6", res.Value)
	}
	// The optimal metric must itself be feasible.
	if bad := Check(res.Metric, spec); bad != nil {
		t.Fatalf("LP-optimal metric infeasible: %v", bad)
	}
}

func TestExactLowerBoundTrivial(t *testing.T) {
	// Everything fits one leaf: g == 0, no constraints, optimum 0.
	h := chainGraph(t, 3)
	spec := hierarchy.Spec{Capacity: []int64{10}, Weight: []float64{1}, Branch: []int{2}}
	res, err := ExactLowerBoundCtx(context.Background(), h, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Value != 0 || res.Cuts != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestExactLowerBoundRejectsOversizedNode(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddNode("", 9)
	b.AddNode("", 1)
	b.AddNet("", 1, 0, 1)
	h := b.MustBuild()
	spec := hierarchy.Spec{Capacity: []int64{4, 10}, Weight: []float64{1, 1}, Branch: []int{2, 2}}
	if _, err := ExactLowerBoundCtx(context.Background(), h, spec, 0); err == nil {
		t.Fatal("oversized node accepted")
	}
}

// TestLemma2LowerBoundsPartitions: on random small instances, the LP bound
// (every relaxation optimum is valid even before full convergence) never
// exceeds the cost of any feasible partition we can build. Rounds are capped
// to keep the test fast; the cutting-plane tail can be long on unstructured
// instances.
func TestLemma2LowerBoundsPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 8; trial++ {
		p := makePartitionedInstance(rng)
		res, err := ExactLowerBoundCtx(context.Background(), p.H, p.Spec, 40)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value > p.Cost()+1e-6 {
			t.Fatalf("trial %d: LP bound %g exceeds a feasible partition's cost %g (converged=%v)",
				trial, res.Value, p.Cost(), res.Converged)
		}
		if res.Value < 0 {
			t.Fatalf("trial %d: negative bound %g", trial, res.Value)
		}
	}
}

// TestLowerBoundMetricIsNonNegative: the simplex returns its optimum with
// round-off, some entries a hair below zero, but the LP constrains d >= 0
// and the lengths feed the tree grower, so every returned length must be
// clamped non-negative. The instances are TestLemma2LowerBoundsPartitions';
// each listed trial stops right after a relaxation whose optimum has
// negative entries (down to -5e-13 in trial 1, round 32).
func TestLowerBoundMetricIsNonNegative(t *testing.T) {
	stopAfter := map[int]int{1: 33, 2: 11, 3: 7, 5: 5, 6: 32}
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 8; trial++ {
		p := makePartitionedInstance(rng)
		rounds, ok := stopAfter[trial]
		if !ok {
			continue
		}
		res, err := ExactLowerBoundCtx(context.Background(), p.H, p.Spec, rounds)
		if err != nil {
			t.Fatal(err)
		}
		for e, d := range res.Metric.D {
			if d < 0 {
				t.Fatalf("trial %d, %d rounds: Metric.D[%d] = %g < 0", trial, rounds, e, d)
			}
		}
	}
}

func TestLemma2OnFigure2(t *testing.T) {
	h, spec, _ := circuits.Figure2()
	res, err := ExactLowerBoundCtx(context.Background(), h, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("LP did not converge after %d cuts", res.Cuts)
	}
	if res.Value <= 0 {
		t.Fatal("Figure 2 LP bound should be positive")
	}
	if res.Value > circuits.Figure2OptimalCost+1e-6 {
		t.Fatalf("LP bound %g above the optimal partition cost %g",
			res.Value, circuits.Figure2OptimalCost)
	}
}

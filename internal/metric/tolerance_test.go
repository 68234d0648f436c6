package metric

import (
	"context"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
)

// Regression for the Check tolerance: the old relTol*max(bound, 1) floor
// degraded to an absolute 1e-9 for bounds below 1, so any deficit under a
// nanometer passed — on small-w_l specs that is a real constraint margin,
// not float noise. The tolerance now scales with max(lhs, bound).

// pathInstance is n unit nodes chained by n-1 unit-capacity 2-pin nets.
func pathInstance(n int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(n)
	for v := 0; v < n-1; v++ {
		b.AddNet("", 1, hypergraph.NodeID(v), hypergraph.NodeID(v+1))
	}
	return b.MustBuild()
}

// smallWSpec: C = (1, 2), w = (1e-6, 1e-6), K = (2, 2). All g values are
// micro-scale: g(2) = 2·(2-1)·1e-6 = 2e-6, g(3) = 4e-6 + 2e-6 = 6e-6.
func smallWSpec() hierarchy.Spec {
	return hierarchy.Spec{Capacity: []int64{1, 2}, Weight: []float64{1e-6, 1e-6}, Branch: []int{2, 2}}
}

func uniformMetric(h *hypergraph.Hypergraph, d float64) *Metric {
	m := New(h)
	for e := range m.D {
		m.D[e] = d
	}
	return m
}

func TestCheckFlagsSubNanoDeficitOnSmallWeights(t *testing.T) {
	h := pathInstance(2)
	spec := smallWSpec()
	// From either root the 2-node prefix needs lhs = d >= g(2) = 2e-6. A
	// 5e-10 deficit is 25% of the bound — genuine, but under the old
	// absolute floor it passed silently.
	m := uniformMetric(h, 2e-6-5e-10)
	if v := Check(m, spec); v == nil {
		t.Fatal("genuine sub-nanometer violation not flagged")
	}
}

func TestCheckAcceptsJustFeasibleSmallWeights(t *testing.T) {
	h := pathInstance(2)
	spec := smallWSpec()
	m := uniformMetric(h, 2e-6+5e-10)
	if v := Check(m, spec); v != nil {
		t.Fatalf("feasible metric flagged: %v", v)
	}
}

func TestCheckAbsorbsRelativeNoiseOnSmallWeights(t *testing.T) {
	h := pathInstance(2)
	spec := smallWSpec()
	// One part in 10^12 below the bound is float accumulation, not a
	// violation; the relative tolerance must still absorb it.
	m := uniformMetric(h, 2e-6*(1-1e-12))
	if v := Check(m, spec); v != nil {
		t.Fatalf("relative-noise-level deficit flagged: %v", v)
	}
}

// Either side of the g breakpoint at x just above C_{L-1}: a 3-node prefix
// crosses C_1 = 2, so the top-level weight term 2(x-C_1)w_1 switches on and
// the bound jumps from 2e-6 (at x=2) to 6e-6 (at x=3). The metric must be
// judged against the post-breakpoint bound.
func TestCheckAtTopCapacityBreakpoint(t *testing.T) {
	h := pathInstance(3)
	spec := smallWSpec()
	// From an end root the prefix distances are 0, d, 2d: lhs(3) = 3d. The
	// 2-node prefix needs d >= 2e-6; the 3-node prefix needs 3d >= 6e-6,
	// i.e. d >= 2e-6 again — but only if g actually includes the w_1 term.
	// Probe with the mid root too: lhs(3) = 2d there, the binding case.
	under := uniformMetric(h, 3e-6-1e-10) // mid-root: 2d = 6e-6 - 2e-10 < g(3)
	v := Check(under, spec)
	if v == nil {
		t.Fatal("violation just past the C_{L-1} breakpoint not flagged")
	}
	if v.Size != 3 {
		t.Fatalf("flagged prefix size %d, want the breakpoint-crossing 3", v.Size)
	}
	over := uniformMetric(h, 3e-6+1e-10)
	if v := Check(over, spec); v != nil {
		t.Fatalf("feasible metric just past the breakpoint flagged: %v", v)
	}
}

// The separation oracle and Check share tolAt, so a converged lower-bound
// metric must pass Check even at micro scales — the inconsistency the old
// mismatched tolerances allowed.
func TestLowerBoundMetricPassesCheckOnSmallWeights(t *testing.T) {
	h := pathInstance(4)
	spec := hierarchy.Spec{Capacity: []int64{1, 2, 4}, Weight: []float64{1e-6, 1e-6, 1e-6}, Branch: []int{2, 2, 2}}
	lb, err := ExactLowerBoundCtx(context.Background(), h, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !lb.Converged {
		t.Fatalf("lower bound did not converge: %v", lb.Stop)
	}
	if v := Check(lb.Metric, spec); v != nil {
		t.Fatalf("converged LP metric fails Check: %v", v)
	}
}

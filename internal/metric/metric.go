// Package metric implements spreading metrics for hierarchical tree
// partitioning (Even, Naor, Rao & Schieber; applied to HTP by Kuo & Cheng).
// A spreading metric assigns a fractional length d(e) >= 0 to every net so
// that heavy node sets are spread apart: for every node v and every prefix
// S(v,k) of the k closest nodes, the weighted distance sum satisfies
//
//	Σ_{u∈S} dist(v,u)·s(u)  >=  g(s(S(v,k)))        (constraint (5))
//
// where g is Spec.G. Any feasible metric's value Σ_e c(e)·d(e) is the LP
// objective of (P1); the metric induced by a partition (d(e) = cost(e)/c(e))
// is feasible and its value equals the partition's interconnection cost
// (Lemma 1), and the LP optimum lower-bounds every partition (Lemma 2).
package metric

import (
	"fmt"
	"math"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/shortest"
)

// Metric is a length assignment over the nets of a hypergraph.
type Metric struct {
	H *hypergraph.Hypergraph
	D []float64
}

// New returns an all-zero metric over h.
func New(h *hypergraph.Hypergraph) *Metric {
	return &Metric{H: h, D: make([]float64, h.NumNets())}
}

// Length returns d(e).
func (m *Metric) Length(e hypergraph.NetID) float64 { return m.D[e] }

// Value returns the LP objective Σ_e c(e)·d(e).
func (m *Metric) Value() float64 {
	var v float64
	for e := range m.D {
		v += m.H.NetCapacity(hypergraph.NetID(e)) * m.D[e]
	}
	return v
}

// Clone returns a deep copy.
func (m *Metric) Clone() *Metric {
	return &Metric{H: m.H, D: append([]float64(nil), m.D...)}
}

// FromPartition derives the metric induced by a partition per Lemma 1:
// d(e) = cost(e)/c(e) (zero-capacity nets get d = 0; they contribute no
// cost either way).
func FromPartition(p *hierarchy.Partition) *Metric {
	m := &Metric{H: p.H, D: p.NetCosts()}
	for e, cost := range m.D {
		if c := p.H.NetCapacity(hypergraph.NetID(e)); c > 0 {
			m.D[e] = cost / c
		} else {
			m.D[e] = 0
		}
	}
	return m
}

// Violation describes a violated spreading constraint: growing from Root,
// the first k settled nodes have total size Size and weighted distance sum
// LHS < Bound = g(Size).
type Violation struct {
	Root  hypergraph.NodeID
	K     int
	Size  int64
	LHS   float64
	Bound float64
}

func (v *Violation) String() string {
	return fmt.Sprintf("spreading constraint violated at v=%d k=%d: %.6g < g(%d) = %.6g",
		v.Root, v.K, v.LHS, v.Size, v.Bound)
}

// tolerance for constraint comparisons: LHS is considered sufficient when
// within a relative epsilon of the compared magnitudes, absorbing float
// accumulation. The scale is max(lhs, bound) — an earlier max(bound, 1)
// floor silently turned this into an absolute 1e-9 for bounds below 1,
// masking genuine violations on small-w_l specs.
const relTol = 1e-9

// tolAt returns the comparison tolerance at the magnitude of lhs vs bound
// (both non-negative by construction).
func tolAt(lhs, bound float64) float64 {
	return relTol * math.Max(lhs, bound)
}

// CheckFrom verifies constraint (5) for a single root v across all k,
// returning the first violation met while growing the shortest-path tree in
// distance order, or nil if none. The spt workspace must be bound to m.H.
func CheckFrom(m *Metric, spec hierarchy.Spec, spt *shortest.HyperSPT, root hypergraph.NodeID) *Violation {
	var (
		lhs  float64
		size int64
		k    int
		bad  *Violation
	)
	spt.Grow(root, m.D, func(v shortest.Visit) bool {
		k++
		size += m.H.NodeSize(v.Node)
		lhs += v.Dist * float64(m.H.NodeSize(v.Node))
		bound := spec.G(size)
		if lhs < bound-tolAt(lhs, bound) {
			bad = &Violation{Root: root, K: k, Size: size, LHS: lhs, Bound: bound}
			return false
		}
		return true
	})
	return bad
}

// Check verifies constraint (5) from every root and returns the first
// violation, or nil if the metric is feasible. O(n·(n+p)·log n) — this is
// the separation oracle of the LP, also used as the convergence test of the
// flow-injection heuristic and in property tests of Lemma 1.
func Check(m *Metric, spec hierarchy.Spec) *Violation {
	spt := shortest.NewHyperSPT(m.H)
	for v := 0; v < m.H.NumNodes(); v++ {
		if bad := CheckFrom(m, spec, spt, hypergraph.NodeID(v)); bad != nil {
			return bad
		}
	}
	return nil
}

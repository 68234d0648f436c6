// Package hierarchy defines the hierarchical tree partitioning (HTP) problem
// of Kuo & Cheng (DAC'97): the per-level parameter Spec (size bounds C_l,
// branch bounds K_l, cost weights w_l), the layered partition tree, the
// partition representation P = (T, {V_q}), the interconnection cost model
// cost(e) = Σ_l w_l·span(e,l)·c(e), and the spreading lower-bound function
// g(x) used by the linear program.
package hierarchy

import (
	"fmt"
	"math"

	"repro/internal/anytime"
)

// Spec holds the HTP parameters for a hierarchy of height L = len(Capacity):
//
//   - Capacity[l] = C_l, the maximum total node size of a block at level l,
//     for l = 0..L-1. The root (level L) is unbounded.
//   - Weight[l] = w_l, the cost weight of crossings at level l, l = 0..L-1.
//   - Branch[l] = K_{l+1}, the maximum number of children of a vertex at
//     level l+1, l = 0..L-1 (so Branch[L-1] bounds the root's children).
//
// All three slices must have the same length L >= 1.
type Spec struct {
	Capacity []int64
	Weight   []float64
	Branch   []int
}

// Height returns L, the number of constrained levels (the root sits at
// level L).
func (s Spec) Height() int { return len(s.Capacity) }

// Clone returns a deep copy.
func (s Spec) Clone() Spec {
	return Spec{
		Capacity: append([]int64(nil), s.Capacity...),
		Weight:   append([]float64(nil), s.Weight...),
		Branch:   append([]int(nil), s.Branch...),
	}
}

// Validate checks structural sanity: equal lengths, positive capacities
// non-decreasing with level, non-negative weights, and branch bounds >= 2
// (a vertex limited to one child could never partition anything). Failures
// wrap anytime.ErrInvalidSpec.
func (s Spec) Validate() error {
	l := len(s.Capacity)
	if l == 0 {
		return fmt.Errorf("hierarchy: empty spec: %w", anytime.ErrInvalidSpec)
	}
	if len(s.Weight) != l || len(s.Branch) != l {
		return fmt.Errorf("hierarchy: spec slice lengths differ: cap=%d weight=%d branch=%d: %w",
			l, len(s.Weight), len(s.Branch), anytime.ErrInvalidSpec)
	}
	for i := 0; i < l; i++ {
		if s.Capacity[i] <= 0 {
			return fmt.Errorf("hierarchy: C_%d = %d must be positive: %w", i, s.Capacity[i], anytime.ErrInvalidSpec)
		}
		if i > 0 && s.Capacity[i] < s.Capacity[i-1] {
			return fmt.Errorf("hierarchy: C_%d = %d < C_%d = %d; capacities must be non-decreasing: %w",
				i, s.Capacity[i], i-1, s.Capacity[i-1], anytime.ErrInvalidSpec)
		}
		if s.Weight[i] < 0 {
			return fmt.Errorf("hierarchy: w_%d = %g must be non-negative: %w", i, s.Weight[i], anytime.ErrInvalidSpec)
		}
		if s.Branch[i] < 2 {
			return fmt.Errorf("hierarchy: K_%d = %d must be at least 2: %w", i+1, s.Branch[i], anytime.ErrInvalidSpec)
		}
	}
	return nil
}

// TopLevel returns the level of the root for a design of the given total
// size: 0 if it fits in a leaf block, otherwise the smallest l with
// size <= C_l, or L if it exceeds every capacity.
func (s Spec) TopLevel(size int64) int {
	for l := 0; l < len(s.Capacity); l++ {
		if size <= s.Capacity[l] {
			return l
		}
	}
	return len(s.Capacity)
}

// G evaluates the spreading bound g(x) of the paper's linear program (P1):
//
//	g(x) = Σ_{i: C_i < x} 2·(x − C_i)·w_i,   g(x) = 0 for x ≤ C_0.
//
// A node set of total size x must be "spread" to weighted-distance at least
// g(x) in any feasible spreading metric.
func (s Spec) G(x int64) float64 {
	var g float64
	for i := 0; i < len(s.Capacity); i++ {
		if x > s.Capacity[i] {
			g += 2 * float64(x-s.Capacity[i]) * s.Weight[i]
		}
	}
	return g
}

// BinaryTreeSpec builds the experimental setup of the paper (§4): a full
// binary tree of the given height over a design of totalSize, i.e.
// K_l = 2 at every level and C_l sized for a balanced binary split with the
// given slack factor (>= 1.0; the paper's FM-based baselines customarily use
// ~10% slack). Weights are supplied per level, len(weights) == height.
func BinaryTreeSpec(totalSize int64, height int, weights []float64, slack float64) (Spec, error) {
	if height < 1 {
		return Spec{}, fmt.Errorf("hierarchy: height %d < 1: %w", height, anytime.ErrInvalidSpec)
	}
	if len(weights) != height {
		return Spec{}, fmt.Errorf("hierarchy: %d weights for height %d: %w", len(weights), height, anytime.ErrInvalidSpec)
	}
	if slack < 1.0 {
		return Spec{}, fmt.Errorf("hierarchy: slack %g < 1: %w", slack, anytime.ErrInvalidSpec)
	}
	s := Spec{
		Capacity: make([]int64, height),
		Weight:   append([]float64(nil), weights...),
		Branch:   make([]int, height),
	}
	// C_0 takes the slack; upper levels double it exactly (C_l = 2^l·C_0)
	// so a parent always holds two full children — independent per-level
	// rounding can otherwise leave C_l one unit short of 2·C_{l-1}, making
	// full leaf blocks unpairable.
	c0 := int64(math.Ceil(float64(totalSize) / math.Pow(2, float64(height)) * slack))
	if c0 < 1 {
		c0 = 1
	}
	for l := 0; l < height; l++ {
		s.Capacity[l] = c0 << uint(l)
		s.Branch[l] = 2
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// GeometricWeights returns weights w_l = base^l for l = 0..height-1 — the
// conventional "higher levels cost more" weighting (Figure 2 of the paper
// uses w_0=1, w_1=2, i.e. base 2).
func GeometricWeights(height int, base float64) []float64 {
	w := make([]float64, height)
	p := 1.0
	for l := 0; l < height; l++ {
		w[l] = p
		p *= base
	}
	return w
}

package metric

import (
	"context"
	"fmt"

	"repro/internal/anytime"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/shortest"
	"repro/internal/simplex"
)

// LowerBoundResult reports an ExactLowerBound run.
type LowerBoundResult struct {
	// Value is the optimal LP objective found — by Lemma 2 a lower bound on
	// every hierarchical tree partition's cost when Converged is true.
	Value float64
	// Metric is the optimal fractional metric.
	Metric *Metric
	// Cuts is the number of spreading constraints separated.
	Cuts int
	// Converged reports whether separation found no further violation
	// (if false, Value is a bound on the relaxation only).
	Converged bool
	// Stop records why the cutting-plane loop ended: StopConverged,
	// StopMaxRounds, or StopDeadline/StopCancelled when the context fired
	// (Value is then the best bound proven before the interruption).
	Stop anytime.Stop
}

// ExactLowerBoundCtx computes the optimum of the spreading-metric LP (P1)
// by cutting planes: solve a relaxation over the separated constraints,
// then grow shortest-path trees from every node under the current
// fractional metric; each violated spreading constraint (5) is linearized
// over its tree — Σ_e d(e)·δ(S,e) ≥ g(s(S)), with δ(S,e) the total node
// size routed through net e — which is valid for every feasible metric
// since tree distances dominate shortest distances. Iterate until no
// violation.
//
// Dense simplex bounds this to small instances (tens of nodes); the paper's
// Lemma 2 is exercised at exactly that scale in tests and the ablation
// bench. maxRounds caps the LP/separation iterations (0 = default 200).
//
// The context is checked on every cutting-plane round and every separation
// root. Every relaxation optimum already lower-bounds (P1), so cancellation
// is not an error: the result carries the best bound proven so far with
// Stop set to the interruption reason and Converged false.
func ExactLowerBoundCtx(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, maxRounds int) (*LowerBoundResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for v := 0; v < h.NumNodes(); v++ {
		if h.NodeSize(hypergraph.NodeID(v)) > spec.Capacity[0] {
			return nil, fmt.Errorf("metric: node %d size %d exceeds C_0 = %d: %w",
				v, h.NodeSize(hypergraph.NodeID(v)), spec.Capacity[0], anytime.ErrOversizedNode)
		}
	}
	if maxRounds == 0 {
		maxRounds = 200
	}
	m := h.NumNets()
	obj := make([]float64, m)
	for e := 0; e < m; e++ {
		obj[e] = h.NetCapacity(hypergraph.NetID(e))
	}
	res := &LowerBoundResult{Metric: New(h)}
	var rows [][]float64
	var rhs []float64
	spt := shortest.NewHyperSPT(h)

	d := make([]float64, m) // current fractional metric
	for round := 0; round < maxRounds; round++ {
		if ctx.Err() != nil {
			res.Stop = anytime.FromContext(ctx)
			return res, nil
		}
		if len(rows) > 0 {
			x, value, st := simplex.Solve(simplex.Problem{C: obj, A: rows, B: rhs})
			if st != simplex.Optimal {
				return nil, fmt.Errorf("metric: LP relaxation %v after %d cuts: %w",
					st, len(rows), anytime.ErrInfeasible)
			}
			// The LP constrains d >= 0, but the simplex returns its
			// optimum with round-off a hair below zero; the lengths go to
			// the tree grower, so clamp them.
			for e, v := range x {
				d[e] = max(v, 0)
			}
			// Any relaxation optimum lower-bounds (P1); keep the best seen
			// (dropping slack rows below can weaken a later relaxation).
			if value > res.Value {
				res.Value = value
			}
			// Cutting-plane housekeeping: drop rows with slack at the
			// current optimum. They are dominated for now and can be
			// re-separated if they ever matter again; keeping the dense
			// tableau small preserves simplex conditioning.
			keepR := rows[:0]
			keepB := rhs[:0]
			for i := range rows {
				var lhs float64
				for j, a := range rows[i] {
					lhs += a * x[j]
				}
				if lhs <= rhs[i]+1e-7 {
					keepR = append(keepR, rows[i])
					keepB = append(keepB, rhs[i])
				}
			}
			rows, rhs = keepR, keepB
		}
		copy(res.Metric.D, d)

		added := 0
		for v := 0; v < h.NumNodes(); v++ {
			if v&63 == 63 && ctx.Err() != nil {
				res.Stop = anytime.FromContext(ctx)
				return res, nil
			}
			for _, row := range separate(h, spec, spt, hypergraph.NodeID(v), d) {
				// Normalize for simplex conditioning: covering rows with
				// max coefficient 1 keep the dense tableau well scaled.
				maxc := 0.0
				for _, c := range row.coeff {
					if c > maxc {
						maxc = c
					}
				}
				if maxc > 0 {
					for j := range row.coeff {
						row.coeff[j] /= maxc
					}
					row.bound /= maxc
				}
				rows = append(rows, row.coeff)
				rhs = append(rhs, row.bound)
				added++
			}
		}
		res.Cuts += added
		if added == 0 {
			res.Converged = true
			res.Stop = anytime.StopConverged
			return res, nil
		}
	}
	res.Stop = anytime.StopMaxRounds
	return res, nil
}

type cut struct {
	coeff []float64
	bound float64
}

// separate grows the full SPT from root under d and returns linearized
// constraints for violated prefixes: the first violation, the most violated
// prefix (largest absolute deficit), and the deepest violated prefix.
// Emitting several depths per root speeds the cutting-plane loop
// considerably over first-violation-only separation.
func separate(h *hypergraph.Hypergraph, spec hierarchy.Spec, spt *shortest.HyperSPT, root hypergraph.NodeID, d []float64) []*cut {
	type link struct {
		via    hypergraph.NetID
		parent hypergraph.NodeID
	}
	links := map[hypergraph.NodeID]link{}
	var prefix []hypergraph.NodeID
	var lhs float64
	var size int64
	first, worst, deepest := -1, -1, -1
	worstDeficit := 0.0
	sizeAt := []int64{}

	spt.Grow(root, d, func(v shortest.Visit) bool {
		links[v.Node] = link{via: v.Via, parent: v.Parent}
		prefix = append(prefix, v.Node)
		size += h.NodeSize(v.Node)
		lhs += v.Dist * float64(h.NodeSize(v.Node))
		sizeAt = append(sizeAt, size)
		bound := spec.G(size)
		// Same relative tolerance as CheckFrom: the separation oracle and the
		// feasibility check must agree on what counts as violated, or the
		// cutting-plane loop can report convergence on a metric Check rejects.
		if deficit := bound - lhs; deficit > tolAt(lhs, bound) {
			k := len(prefix) - 1
			if first < 0 {
				first = k
			}
			if deficit > worstDeficit {
				worstDeficit = deficit
				worst = k
			}
			deepest = k
		}
		return true
	})
	if first < 0 {
		return nil
	}
	ks := []int{first}
	if worst != first {
		ks = append(ks, worst)
	}
	if deepest != first && deepest != worst {
		ks = append(ks, deepest)
	}
	cuts := make([]*cut, 0, len(ks))
	for _, k := range ks {
		c := &cut{coeff: make([]float64, h.NumNets()), bound: spec.G(sizeAt[k])}
		for _, u := range prefix[:k+1] {
			s := float64(h.NodeSize(u))
			for cur := u; cur != root; {
				l := links[cur]
				c.coeff[l.via] += s
				cur = l.parent
			}
		}
		cuts = append(cuts, c)
	}
	return cuts
}

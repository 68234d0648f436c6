// Package ratiocut implements stochastic flow-injection ratio-cut
// bipartitioning in the style of Yeh, Cheng & Lin (TCAD'95) and Lang & Rao
// (SODA'93) — the lineage the paper's spreading-metric heuristic descends
// from (§1, refs [10][17]). Flow is injected on shortest paths between
// random node pairs; congested nets grow exponentially long; sweeping the
// resulting distance order exposes cuts of low ratio
//
//	ratio(A, B) = cut(A, B) / (s(A) · s(B)),
//
// the objective that folds balance into the cost instead of constraining it
// — exactly the contrast the paper draws against its explicit size bounds.
package ratiocut

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/anytime"
	"repro/internal/hypergraph"
	"repro/internal/shortest"
)

// Options tunes the heuristic. Zero values select the noted defaults.
type Options struct {
	// Pairs is the number of random source/sink pairs to route. Default
	// 8·n.
	Pairs int
	// Rng drives all randomness; defaults to a fixed seed.
	Rng *rand.Rand
}

// The injection and extraction schedule is fixed: each routed path adds
// delta flow to its nets, a net's length is exp(α·f(e)/c(e)) − 1 with
// α = alpha and the exponent capped at maxExponent, every net starts at
// flow epsilon, and the cut is extracted from sweeps random roots.
const (
	delta       = 0.1
	alpha       = 2
	epsilon     = 1e-4
	maxExponent = 60
	sweeps      = 8
)

func (o Options) withDefaults(n int) Options {
	if o.Pairs == 0 {
		o.Pairs = 8 * n
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// Result reports a ratio-cut bipartition.
type Result struct {
	// InA marks side-A membership; both sides are non-empty.
	InA []bool
	// Cut is the total capacity of crossing nets.
	Cut float64
	// Ratio is Cut / (s(A)·s(B)).
	Ratio float64
	// Lengths is the final congestion-length of every net.
	Lengths []float64
	// Stop records why the run ended: StopConverged for a full schedule,
	// StopDeadline/StopCancelled when the context fired and the result is
	// the best cut found before the interruption.
	Stop anytime.Stop
}

// BipartitionCtx runs the stochastic flow injection and sweep extraction.
// The hypergraph must have at least 2 nodes. The context is checked between
// injected pairs and between extraction sweeps. The heuristic is anytime by
// nature — fewer pairs mean a noisier congestion signal, fewer sweeps fewer
// cut candidates — so cancellation degrades quality, never validity: the
// result always has two non-empty sides.
func BipartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, opt Options) *Result {
	n := h.NumNodes()
	if n < 2 {
		panic("ratiocut: need at least 2 nodes")
	}
	opt = opt.withDefaults(n)

	flow := make([]float64, h.NumNets())
	d := make([]float64, h.NumNets())
	relength := func(e hypergraph.NetID) {
		c := h.NetCapacity(e)
		if c <= 0 {
			d[e] = math.Exp(maxExponent) - 1 // free to cut
			return
		}
		x := alpha * flow[e] / c
		if x > maxExponent {
			x = maxExponent
		}
		d[e] = math.Exp(x) - 1
	}
	for e := 0; e < h.NumNets(); e++ {
		flow[e] = epsilon
		relength(hypergraph.NetID(e))
	}

	// Inject flow on the shortest path between random pairs: grow the SPT
	// from s until t settles, then walk t's tree path.
	spt := shortest.NewHyperSPT(h)
	type link struct {
		via    hypergraph.NetID
		parent hypergraph.NodeID
	}
	links := make(map[hypergraph.NodeID]link, n)
	for p := 0; p < opt.Pairs; p++ {
		if p&63 == 63 && ctx.Err() != nil {
			break
		}
		s := hypergraph.NodeID(opt.Rng.Intn(n))
		t := hypergraph.NodeID(opt.Rng.Intn(n))
		if s == t {
			continue
		}
		clear(links)
		found := false
		spt.Grow(s, d, func(v shortest.Visit) bool {
			links[v.Node] = link{via: v.Via, parent: v.Parent}
			if v.Node == t {
				found = true
				return false
			}
			return true
		})
		if !found {
			continue // t unreachable from s
		}
		for cur := t; cur != s; {
			l := links[cur]
			flow[l.via] += delta
			relength(l.via)
			cur = l.parent
		}
	}

	// Extraction: sweep nodes in distance order from several roots; every
	// prefix is a candidate cut, scored by ratio.
	best := &Result{Ratio: math.Inf(1), Lengths: d}
	total := h.TotalSize()
	cnt := make([]int32, h.NumNets())
	for sweep := 0; sweep < sweeps; sweep++ {
		// Always run the first sweep so a cut exists; later sweeps only
		// improve it and may be skipped once ctx fires.
		if sweep > 0 && ctx.Err() != nil {
			break
		}
		root := hypergraph.NodeID(opt.Rng.Intn(n))
		for e := range cnt {
			cnt[e] = 0
		}
		var (
			order []hypergraph.NodeID
			cut   float64
			sizeA int64
		)
		bestK, bestRatio, bestCut := -1, math.Inf(1), 0.0
		spt.Grow(root, d, func(v shortest.Visit) bool {
			order = append(order, v.Node)
			sizeA += h.NodeSize(v.Node)
			for _, e := range h.Incident(v.Node) {
				card := int32(len(h.Pins(e)))
				before := cnt[e] > 0 && cnt[e] < card
				cnt[e]++
				after := cnt[e] > 0 && cnt[e] < card
				if before != after {
					if after {
						cut += h.NetCapacity(e)
					} else {
						cut -= h.NetCapacity(e)
					}
				}
			}
			if sizeA < total { // both sides non-empty
				if r := cut / (float64(sizeA) * float64(total-sizeA)); r < bestRatio {
					bestRatio, bestK, bestCut = r, len(order), cut
				}
			}
			return true
		})
		if bestK > 0 && bestRatio < best.Ratio {
			inA := make([]bool, n)
			for _, v := range order[:bestK] {
				inA[v] = true
			}
			best.InA = inA
			best.Ratio = bestRatio
			best.Cut = bestCut
		}
	}
	if best.InA == nil {
		// Degenerate (e.g. all pairs unreachable): split arbitrarily.
		best.InA = make([]bool, n)
		best.InA[0] = true
		c, _ := h.CutCapacity(best.InA)
		best.Cut = c
		sA := float64(h.NodeSize(0))
		best.Ratio = c / (sA * float64(total-h.NodeSize(0)))
	}
	if stop := anytime.FromContext(ctx); stop != "" {
		best.Stop = stop
	} else {
		best.Stop = anytime.StopConverged
	}
	return best
}

// Ratio evaluates cut(A,B)/(s(A)·s(B)) for a given bipartition; +Inf if a
// side is empty.
func Ratio(h *hypergraph.Hypergraph, inA []bool) float64 {
	var sA int64
	for v := 0; v < h.NumNodes(); v++ {
		if inA[v] {
			sA += h.NodeSize(hypergraph.NodeID(v))
		}
	}
	sB := h.TotalSize() - sA
	if sA == 0 || sB == 0 {
		return math.Inf(1)
	}
	cut, _ := h.CutCapacity(inA)
	return cut / (float64(sA) * float64(sB))
}

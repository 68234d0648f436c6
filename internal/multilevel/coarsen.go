// Package multilevel implements the V-cycle scaffolding of a multilevel
// hypergraph partitioner in the KaHyPar mold (Heuer/Sanders/Schlag,
// arXiv:1802.03587): a deterministic, seed-reproducible heavy-edge
// coarsener that builds a stack of successively smaller hypergraphs, and an
// uncoarsening pass that projects a partition of the coarsest level back
// down level by level with boundary-localized FM refinement.
//
// The package is strategy-agnostic: it never solves the coarsest instance
// itself. htp.PipelineCtx runs it when Pipeline.Multilevel is set: the
// pipeline's constructor (FLOW, RFM or GFM) and "+" FM step solve the
// coarsest level, and its flow-refine step runs on the finest level after
// Uncoarsen.
//
// Determinism contract (enforced by the detrand analyzer and pinned by a
// golden-hash test): for a fixed Seed the produced level stack is
// bit-for-bit identical at any Workers count. The parallel phase computes a
// pure per-node function into disjoint slots; everything order-sensitive
// (matching, cluster numbering) runs sequentially from a seeded source.
package multilevel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// CoarsenOptions tunes the heavy-edge coarsener. The rating net-size cap
// (ratingNetCap) and the stack depth bound (maxLevels) are constants, not
// options.
type CoarsenOptions struct {
	// TargetNodes stops coarsening once a level has at most this many
	// nodes — small enough that the spreading-metric LP is cheap, large
	// enough to leave the coarse solver real structure. Default 300.
	TargetNodes int
	// MaxClusterSize caps the total fine-node size merged into one coarse
	// node. It must stay well under the leaf capacity C_0 or the coarse
	// instance loses packing freedom (and becomes infeasible past C_0);
	// callers normally pass min(totalSize/TargetNodes, (C_0+1)/2).
	// Default: max(1, totalSize/TargetNodes).
	MaxClusterSize int64
	// Workers parallelizes the rating phase. Results are identical at any
	// value. Default 1.
	Workers int
	// Seed drives the (sequential) matching order. Default 1.
	Seed int64
	// Observer receives one KindLevel event per coarsening level. Nil
	// disables telemetry at zero cost.
	Observer obs.Observer
	// Span nests the per-level events in the caller's span tree: each
	// coarsening level mints one child span under Span.Parent. Zero
	// value is fine.
	Span obs.SpanScope
}

const (
	// ratingNetCap excludes nets with more pins than this from ratings.
	// Huge nets (global control signals) carry almost no locality signal,
	// cost O(|e|) per incident node to score, and would make rating
	// quadratic in the worst case. They still survive contraction.
	ratingNetCap = 256
	// maxLevels bounds the stack depth.
	maxLevels = 64
)

func (o CoarsenOptions) withDefaults(h *hypergraph.Hypergraph) CoarsenOptions {
	if o.TargetNodes == 0 {
		o.TargetNodes = 300
	}
	if o.MaxClusterSize == 0 {
		o.MaxClusterSize = h.TotalSize() / int64(o.TargetNodes)
		if o.MaxClusterSize < 1 {
			o.MaxClusterSize = 1
		}
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Level is one coarsening step: Coarse is the contracted hypergraph and
// ClusterOf maps every node of the next-finer graph (the previous level's
// Coarse, or Stack.Fine for the first level) to its coarse node.
type Level struct {
	Coarse    *hypergraph.Hypergraph
	ClusterOf []int
}

// Stack is a coarsening hierarchy. Levels[0] coarsens Fine; Levels[i]
// coarsens Levels[i-1].Coarse. An empty Levels slice means the instance was
// already at or below the coarsening target.
type Stack struct {
	Fine   *hypergraph.Hypergraph
	Levels []Level
}

// Coarsest returns the smallest hypergraph in the stack (Fine itself when
// no coarsening happened).
func (s *Stack) Coarsest() *hypergraph.Hypergraph {
	if len(s.Levels) == 0 {
		return s.Fine
	}
	return s.Levels[len(s.Levels)-1].Coarse
}

// graphAbove returns the hypergraph that Levels[i].ClusterOf maps from.
func (s *Stack) graphAbove(i int) *hypergraph.Hypergraph {
	if i == 0 {
		return s.Fine
	}
	return s.Levels[i-1].Coarse
}

// Coarsen builds a level stack over h by repeated size-constrained
// heavy-edge matching and deduplicating contraction. Each level:
//
//  1. (parallel, pure) every node v rates its neighbors with the standard
//     heavy-edge score r(u,v) = Σ_{e ⊇ {u,v}} c(e)/(|e|−1) and records its
//     best size-feasible partner pref[v];
//  2. (sequential, seeded) nodes are visited in a shuffled order; an
//     unclustered node joins its preferred partner's cluster when the size
//     bound allows, falls back to its best feasible neighbor cluster, and
//     otherwise starts a singleton. Cluster IDs are dense in formation
//     order, so the mapping is reproducible;
//  3. the level is contracted with ContractDedup, which drops nets interior
//     to a cluster and merges parallel nets (summed capacities) — the
//     invariant that keeps net and pin counts shrinking with node counts.
//
// Coarsening stops at TargetNodes, when a level shrinks less than 5%
// (diminishing returns), at maxLevels, or when the context fires (the stack
// built so far is returned; callers observe ctx themselves).
func Coarsen(ctx context.Context, h *hypergraph.Hypergraph, opt CoarsenOptions) (*Stack, error) {
	opt = opt.withDefaults(h)
	s := &Stack{Fine: h}
	rng := rand.New(rand.NewSource(opt.Seed))
	sc := newCoarsenScratch(h.NumNodes(), opt.Workers)
	cur := h
	for len(s.Levels) < maxLevels && cur.NumNodes() > opt.TargetNodes && ctx.Err() == nil {
		var t0 time.Time
		if opt.Observer != nil {
			t0 = time.Now()
		}
		clusterOf, k, err := coarsenLevel(cur, opt, rng, sc)
		if err != nil {
			return nil, err
		}
		if k >= cur.NumNodes() {
			break // nothing merged; the graph resists further coarsening
		}
		coarse, err := cur.ContractDedup(clusterOf, k)
		if err != nil {
			return nil, fmt.Errorf("multilevel: contracting level %d: %w", len(s.Levels), err)
		}
		s.Levels = append(s.Levels, Level{Coarse: coarse, ClusterOf: clusterOf})
		if opt.Observer != nil {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindLevel, Phase: "coarsen",
				Round: len(s.Levels), Active: coarse.NumNodes(),
				Span: opt.Span.Mint(), Parent: opt.Span.Parent,
				ElapsedMS: obs.Millis(time.Since(t0))})
		}
		if float64(k) > 0.95*float64(cur.NumNodes()) {
			break // <5% shrink: stop before grinding out useless levels
		}
		cur = coarse
	}
	return s, nil
}

// ratingScratch holds one rater's per-node accumulation state, reused
// across nodes via a generation stamp so scoring node v costs O(deg(v))
// regardless of graph size.
type ratingScratch struct {
	score   []float64
	stamp   []int32
	gen     int32
	touched []hypergraph.NodeID
}

func newRatingScratch(n int) *ratingScratch {
	return &ratingScratch{score: make([]float64, n), stamp: make([]int32, n)}
}

// coarsenScratch is the per-node scratch of every level, allocated once
// per Coarsen for the finest graph: levels only shrink, so each takes a
// prefix. Each rating worker allocates its own scratch on its first level
// (on its own goroutine, so two workers' generation counters do not share
// a cache line), and the sequential phase reuses worker 0's, whose stamps
// stay valid across levels because its generation only grows.
type coarsenScratch struct {
	pref   []int32
	order  []int
	sizes  []int64 // cluster sizes, appended in formation order
	raters []*ratingScratch
}

func newCoarsenScratch(n, workers int) *coarsenScratch {
	return &coarsenScratch{
		pref:   make([]int32, n),
		order:  make([]int, n),
		sizes:  make([]int64, 0, n),
		raters: make([]*ratingScratch, workers),
	}
}

// rater returns rating worker id's scratch, allocating it on first use.
func (sc *coarsenScratch) rater(id int) *ratingScratch {
	if sc.raters[id] == nil {
		sc.raters[id] = newRatingScratch(len(sc.pref))
	}
	return sc.raters[id]
}

// permInto fills m with the permutation rng.Perm(len(m)) returns, making
// the same draws.
func permInto(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// rate fills sc with the heavy-edge scores of v's neighbors and returns the
// touched list in deterministic (incidence-order) sequence. Nets above
// ratingNetCap pins are skipped.
func rate(h *hypergraph.Hypergraph, v hypergraph.NodeID, sc *ratingScratch) []hypergraph.NodeID {
	if sc.gen == math.MaxInt32 {
		clear(sc.stamp)
		sc.gen = 0
	}
	sc.gen++
	sc.touched = sc.touched[:0]
	for _, e := range h.Incident(v) {
		pins := h.Pins(e)
		if len(pins) > ratingNetCap {
			continue
		}
		w := h.NetCapacity(e) / float64(len(pins)-1)
		for _, u := range pins {
			if u == v {
				continue
			}
			if sc.stamp[u] != sc.gen {
				sc.stamp[u] = sc.gen
				sc.score[u] = 0
				sc.touched = append(sc.touched, u)
			}
			sc.score[u] += w
		}
	}
	return sc.touched
}

// coarsenLevel computes one level's cluster assignment in scratch sized
// for at least h's nodes. The returned clusterOf is dense over 0..k-1 with
// no empty clusters.
func coarsenLevel(h *hypergraph.Hypergraph, opt CoarsenOptions, rng *rand.Rand, scratch *coarsenScratch) (clusterOf []int, k int, err error) {
	n := h.NumNodes()
	pref := scratch.pref[:n]

	// Phase 1 (parallel, pure): pref[v] = argmax_u r(u,v) among neighbors
	// with size(v)+size(u) within the cluster bound; ties break to the
	// smaller node ID so the result is independent of accumulation order.
	// Workers claim fixed-size index batches from an atomic counter and
	// write disjoint pref slots, so any worker count computes the same
	// array.
	const batch = 512
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		panics = make([]error, opt.Workers)
	)
	worker := func(id int) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panics[id] = fmt.Errorf("multilevel: rating worker panicked: %v\n%s", r, debug.Stack())
			}
		}()
		sc := scratch.rater(id)
		//htpvet:allow ctxpoll -- batch-claim loop off a monotone atomic counter: exits after at most ceil(n/batch) claims; Coarsen's level loop polls ctx between levels
		for {
			lo := int(next.Add(batch)) - batch
			if lo >= n {
				return
			}
			hi := lo + batch
			if hi > n {
				hi = n
			}
			for vi := lo; vi < hi; vi++ {
				v := hypergraph.NodeID(vi)
				sv := h.NodeSize(v)
				best := int32(-1)
				var bestScore float64
				for _, u := range rate(h, v, sc) {
					if sv+h.NodeSize(u) > opt.MaxClusterSize {
						continue
					}
					s := sc.score[u]
					if best < 0 || s > bestScore || (s == bestScore && int32(u) < best) {
						best, bestScore = int32(u), s
					}
				}
				pref[vi] = best
			}
		}
	}
	if opt.Workers <= 1 {
		wg.Add(1)
		worker(0)
	} else {
		for w := 0; w < opt.Workers; w++ {
			wg.Add(1)
			go worker(w)
		}
		wg.Wait()
	}
	for _, p := range panics {
		if p != nil {
			return nil, 0, p
		}
	}

	// Phase 2 (sequential, seeded): greedy clustering in shuffled order.
	clusterOf = make([]int, n)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	clusterSizes := scratch.sizes[:0]
	sc := scratch.rater(0)
	join := func(vi int, target int, sv int64) {
		clusterOf[vi] = target
		clusterSizes[target] += sv
	}
	order := scratch.order[:n]
	permInto(rng, order)
	for _, vi := range order {
		if clusterOf[vi] >= 0 {
			continue
		}
		v := hypergraph.NodeID(vi)
		sv := h.NodeSize(v)
		target := -1
		if u := pref[vi]; u >= 0 {
			if cu := clusterOf[u]; cu >= 0 {
				if clusterSizes[cu]+sv <= opt.MaxClusterSize {
					target = cu
				}
			} else {
				// Partner still free: found a fresh pair (sizes were
				// checked in phase 1).
				target = len(clusterSizes)
				clusterSizes = append(clusterSizes, h.NodeSize(hypergraph.NodeID(u)))
				clusterOf[u] = target
			}
		}
		if target < 0 {
			// Preferred partner full or absent: rescan the neighborhood
			// against the live cluster state for the best feasible join.
			best := int32(-1)
			var bestScore float64
			for _, u := range rate(h, v, sc) {
				var room int64
				if cu := clusterOf[u]; cu >= 0 {
					room = clusterSizes[cu] + sv
				} else {
					room = h.NodeSize(u) + sv
				}
				if room > opt.MaxClusterSize {
					continue
				}
				s := sc.score[u]
				if best < 0 || s > bestScore || (s == bestScore && int32(u) < best) {
					best, bestScore = int32(u), s
				}
			}
			if best >= 0 {
				if cu := clusterOf[best]; cu >= 0 {
					target = cu
				} else {
					target = len(clusterSizes)
					clusterSizes = append(clusterSizes, h.NodeSize(hypergraph.NodeID(best)))
					clusterOf[best] = target
				}
			}
		}
		if target < 0 {
			target = len(clusterSizes)
			clusterSizes = append(clusterSizes, 0)
		}
		join(vi, target, sv)
	}
	return clusterOf, len(clusterSizes), nil
}

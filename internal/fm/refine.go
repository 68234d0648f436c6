package fm

import (
	"context"
	"math"
	"math/rand"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// RefineOptions tunes the hierarchical improvement. Its pass budget is the
// constant maxRefinePasses (20), not an option.
type RefineOptions struct {
	// Rng orders the sweep. Defaults to a fixed seed.
	Rng *rand.Rand
	// Observer receives one refine-pass event per pass (cost after the
	// pass) and a terminal "refine" span with the total elapsed time. The
	// "+" pipelines (htp.Pipeline) forward their run observer here. Nil
	// disables telemetry at zero cost.
	Observer obs.Observer
	// Span nests the refinement's events in the caller's span tree (one
	// child span per RefineHierarchicalCtx run). Zero value is fine.
	Span obs.SpanScope
}

// maxRefinePasses bounds RefineHierarchicalCtx's sweeps over all nodes.
const maxRefinePasses = 20

func (o RefineOptions) withDefaults() RefineOptions {
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// RefineHierarchicalCtx improves a hierarchical tree partition in place by
// FM-style leaf-to-leaf node moves under the full hierarchical cost — the
// iterative improvement of Kuo, Liu & Cheng [9] that turns GFM/RFM/FLOW into
// GFM+/RFM+/FLOW+. Each pass visits every node in random order and applies
// the best capacity-feasible move among candidate leaves (the leaves holding
// other pins of the node's nets, the natural K-way-FM candidate set), chosen
// by the routine BoundaryRefiner shares (mover) with no net-scan cap.
// Passes repeat until one yields no improvement or maxRefinePasses is
// reached.
//
// Returns the final cost and the total improvement (initial − final >= 0).
// The context is checked on every pass and periodically within a pass.
// Refinement mutates the partition in place and every intermediate state is
// valid and no worse than the previous one, so cancellation simply stops
// early and returns the best cost reached — a pure anytime improver.
func RefineHierarchicalCtx(ctx context.Context, p *hierarchy.Partition, opt RefineOptions) (cost, improvement float64) {
	opt = opt.withDefaults()
	_, opt.Observer = opt.Span.Enter(opt.Observer)
	cs := hierarchy.NewCostState(p)
	initial := cs.Cost()

	var t0 time.Time
	if opt.Observer != nil {
		t0 = time.Now()
		// The span is emitted on every exit path (cancellation included) so
		// run reports always attribute refinement time.
		defer func() {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindSpan, Phase: "refine",
				Cost: cs.Cost(), ElapsedMS: obs.Millis(time.Since(t0))})
		}()
	}

	n := p.H.NumNodes()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	mv := newMover(cs, math.MaxInt)

	for pass := 0; pass < maxRefinePasses && ctx.Err() == nil; pass++ {
		improved := false
		opt.Rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for oi, vi := range order {
			if oi&255 == 255 && ctx.Err() != nil {
				return cs.Cost(), initial - cs.Cost()
			}
			v := hypergraph.NodeID(vi)
			if leaf, _ := mv.best(v); leaf >= 0 {
				cs.Apply(v, leaf)
				improved = true
			}
		}
		if opt.Observer != nil {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindRefinePass, Round: pass + 1,
				Cost: cs.Cost(), ElapsedMS: obs.Millis(time.Since(t0))})
		}
		if !improved {
			break
		}
	}
	return cs.Cost(), initial - cs.Cost()
}

// GrowSeedSideCtx builds an initial bipartition side by breadth-first
// growth from seed until the side size reaches target (it may overshoot by
// one node). Disconnected remainders are left on the B side. Used to prime
// RefineBipartitionCtx. The growth polls cancellation every 256 dequeues and
// returns the side grown so far, which is always a valid (if undersized)
// seed region for refinement.
func GrowSeedSideCtx(ctx context.Context, h *hypergraph.Hypergraph, seed hypergraph.NodeID, target int64) []bool {
	inA := make([]bool, h.NumNodes())
	inA[seed] = true
	size := h.NodeSize(seed)
	queue := []hypergraph.NodeID{seed}
	for steps := 0; len(queue) > 0 && size < target; steps++ {
		if steps&255 == 255 && ctx.Err() != nil {
			return inA
		}
		v := queue[0]
		queue = queue[1:]
		for _, e := range h.Incident(v) {
			for _, u := range h.Pins(e) {
				if inA[u] {
					continue
				}
				inA[u] = true
				size += h.NodeSize(u)
				queue = append(queue, u)
				if size >= target {
					return inA
				}
			}
		}
	}
	// If growth stalled on a small component, absorb arbitrary nodes.
	for v := 0; v < h.NumNodes() && size < target; v++ {
		if !inA[v] {
			inA[v] = true
			size += h.NodeSize(hypergraph.NodeID(v))
		}
	}
	return inA
}

// RecursiveBisection splits the hypergraph into blocks of size at most
// maxBlock by recursive FM bisection, aiming for balanced halves. It
// returns the block index of every node and the number of blocks. Once ctx
// is done it stops recursing: every subgraph not yet split becomes one
// block, which may exceed maxBlock, so callers check ctx afterwards. rng
// picks each split's seed node; nil means a fixed seed of 1.
func RecursiveBisection(ctx context.Context, h *hypergraph.Hypergraph, maxBlock int64, rng *rand.Rand) ([]int, int) {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	blockOf := make([]int, h.NumNodes())
	nextBlock := 0

	var split func(sub *hypergraph.Hypergraph, orig []hypergraph.NodeID)
	split = func(sub *hypergraph.Hypergraph, orig []hypergraph.NodeID) {
		if sub.TotalSize() <= maxBlock || ctx.Err() != nil {
			b := nextBlock
			nextBlock++
			for _, v := range orig {
				blockOf[v] = b
			}
			return
		}
		// Part-count-aware window: the subgraph needs k = ceil(size/max)
		// blocks; side A takes ceil(k/2) of them. The window is exactly the
		// sizes from which both sides can still be packed into their share
		// of maxBlock-sized blocks — symmetric ±10% windows drift and
		// produce extra undersized blocks that break bottom-up grouping.
		total := sub.TotalSize()
		k := (total + maxBlock - 1) / maxBlock
		kA := (k + 1) / 2
		lb := total - (k-kA)*maxBlock
		ub := kA * maxBlock
		if lb < 1 {
			lb = 1
		}
		if ub >= total {
			ub = total - 1
		}
		target := total * kA / k
		seed := hypergraph.NodeID(rng.Intn(sub.NumNodes()))
		inA := GrowSeedSideCtx(ctx, sub, seed, target)
		RefineBipartitionCtx(ctx, sub, inA, lb, ub)
		var aNodes, bNodes []hypergraph.NodeID
		var aOrig, bOrig []hypergraph.NodeID
		for v := 0; v < sub.NumNodes(); v++ {
			if inA[v] {
				aNodes = append(aNodes, hypergraph.NodeID(v))
				aOrig = append(aOrig, orig[v])
			} else {
				bNodes = append(bNodes, hypergraph.NodeID(v))
				bOrig = append(bOrig, orig[v])
			}
		}
		if len(aNodes) == 0 || len(bNodes) == 0 {
			// Refinement degenerated (e.g. single huge node): force a split.
			b := nextBlock
			nextBlock++
			for _, v := range orig {
				blockOf[v] = b
			}
			return
		}
		subA, _, _ := sub.InducedSubgraph(aNodes)
		subB, _, _ := sub.InducedSubgraph(bNodes)
		split(subA, aOrig)
		split(subB, bOrig)
	}

	all := make([]hypergraph.NodeID, h.NumNodes())
	for i := range all {
		all[i] = hypergraph.NodeID(i)
	}
	split(h, all)
	return blockOf, nextBlock
}

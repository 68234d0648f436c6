package htp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/anytime"
	"repro/internal/fm"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// RFMOptions tunes the RFM baseline.
type RFMOptions struct {
	// Seed drives every random choice. Default 1.
	Seed int64
	// Observer receives build-done and terminal stop trace events (see
	// internal/obs). Nil disables telemetry at zero cost.
	Observer obs.Observer
	// Span nests the run's events in the caller's span tree (one span
	// for the whole RFM run). Zero value is fine.
	Span obs.SpanScope
}

// RFMCtx runs the top-down recursive baseline of Kuo, Liu & Cheng
// (DAC'96): the same construction skeleton as Algorithm 3, but each
// separation is found by a direct FM min-cut on the current sub-hypergraph
// instead of the spreading-metric Prim growth. It greedily optimizes the cut
// at each level without the global (all-levels) view the metric provides —
// exactly the contrast the paper draws in §4.
//
// Unlike FLOW, RFM builds exactly one partition, so there is no best-so-far
// to fall back on: cancellation mid-construction returns an error wrapping
// anytime.ErrNoPartition and the context cause.
func RFMCtx(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt RFMOptions) (*Result, error) {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	_, opt.Observer = opt.Span.Enter(opt.Observer)
	var t0 time.Time
	if opt.Observer != nil {
		t0 = time.Now()
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	engine := func(sub *hypergraph.Hypergraph, _ []float64, lb, ub int64, rng *rand.Rand) []hypergraph.NodeID {
		return fmCarve(ctx, sub, lb, ub, rng)
	}
	d := make([]float64, h.NumNets()) // unused by the FM engine
	p, err := BuildCtx(ctx, h, spec, d, BuildOptions{
		Rng:           rng,
		Engine:        engine,
		CarveAttempts: 1, // the FM engine is already a full local search
	})
	if err != nil {
		emitStop(opt.Observer, "error", 0, t0, err)
		return nil, err
	}
	if err := p.Validate(); err != nil {
		err = fmt.Errorf("htp: RFM partition invalid: %w",
			errors.Join(anytime.ErrNoPartition, err))
		emitStop(opt.Observer, "error", 0, t0, err)
		return nil, err
	}
	res := &Result{Partition: p, Cost: p.Cost(), Iterations: 1, Stop: anytime.StopConverged}
	if opt.Observer != nil {
		obs.Emit(opt.Observer, obs.Event{Kind: obs.KindBuildDone,
			Cost: res.Cost, ElapsedMS: obs.Millis(time.Since(t0))})
		emitStop(opt.Observer, string(res.Stop), res.Cost, t0, nil)
	}
	return res, nil
}

// fmCarve separates a node set of size within [lb..ub] by seeding a region,
// growing it to the window's midpoint, and FM-refining the bipartition under
// the window. Returns side-A node IDs of sub.
func fmCarve(ctx context.Context, sub *hypergraph.Hypergraph, lb, ub int64, rng *rand.Rand) []hypergraph.NodeID {
	seed := hypergraph.NodeID(rng.Intn(sub.NumNodes()))
	target := (lb + ub) / 2
	if target < 1 {
		target = 1
	}
	inA := fm.GrowSeedSideCtx(ctx, sub, seed, target)
	fm.RefineBipartitionCtx(ctx, sub, inA, lb, ub)
	var piece []hypergraph.NodeID
	var size int64
	for v := 0; v < sub.NumNodes(); v++ {
		if inA[v] {
			piece = append(piece, hypergraph.NodeID(v))
			size += sub.NodeSize(hypergraph.NodeID(v))
		}
	}
	// Enforce the hard upper bound. On unit node sizes the grow lands
	// exactly on target and refinement preserves [lb..ub], so the loop
	// never runs and flat RFM is unchanged. On lumpy sizes (multilevel
	// cluster nodes) the grow can overshoot ub by up to a node and
	// refinement cannot always recover; an undershoot of lb is repaired
	// by the builder's shared top-up (see carve in build.go).
	//htpvet:allow ctxpoll -- sheds exactly one node per iteration (at most |piece| total), and ub is a hard invariant the builder's window accounting relies on, so the repair must finish even under cancellation
	for size > ub && len(piece) > 1 {
		// Prefer a removal that lands inside the window; otherwise shed the
		// largest node so the loop makes maximal progress toward ub.
		best := -1
		for i, v := range piece {
			if s := sub.NodeSize(v); size-s >= lb && size-s <= ub {
				best = i
				break
			}
		}
		if best < 0 {
			for i, v := range piece {
				if best < 0 || sub.NodeSize(v) > sub.NodeSize(piece[best]) {
					best = i
				}
			}
		}
		size -= sub.NodeSize(piece[best])
		piece = append(piece[:best], piece[best+1:]...)
	}
	return piece
}

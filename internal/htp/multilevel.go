package htp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/anytime"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/obs"
)

// Multilevel runs a Pipeline inside the multilevel V-cycle: coarsen h with
// deterministic heavy-edge matching, run the constructor and the "+" FM
// step on the coarsest level (cheap there, and it hands the descent a
// better starting point), project back down level by level with
// boundary-localized FM refinement, then run the flow-refine step on the
// finest level. Coarse nodes are capped at min(totalSize/CoarsenTarget,
// (C_0+1)/2), so clusters stay well under the leaf capacity and the coarse
// instance keeps packing freedom; every level gets up to 8 refinement
// passes.
type Multilevel struct {
	// CoarsenTarget is the node count at which coarsening stops (the
	// coarsest level the constructor solves). Default 300.
	CoarsenTarget int
	// Workers parallelizes the coarsener's rating phase, and is the
	// flow-refine step's Workers when FlowRefine leaves it zero. Results
	// are bit-identical at any value. It is deliberately NOT forwarded to
	// Flow.Inject.Workers: the metric engine's sequential and batched
	// schedules produce different (each internally deterministic) metrics,
	// so coupling them would make the V-cycle's output depend on the
	// worker count. Set Flow.Inject.Workers explicitly to parallelize the
	// coarse solve — on a ~300-node coarsest level it rarely pays.
	Workers int
}

// refinePasses bounds the FM passes per level on the way back down.
const refinePasses = 8

// coarseFlow fills the V-cycle's coarse-level FLOW defaults into the zero
// fields of opt. The coarse graph has few nodes but — on netlists with
// long-range connections — its net count still grows with the fine
// instance: cross-links never become intra-cluster, so every shortest-path
// tree costs O(fine pins). The flat defaults (4 metric+build cycles, metric
// run to convergence) multiply that by a large, n-dependent round count.
// The coarse FLOW stage instead computes ONE metric with a bounded sweep
// budget and amortizes it over two partition constructions; uncoarsening
// refinement recovers more than extra metric precision buys. Measured at
// n=65536 this is 2.4x faster than two converged cycles with ~35% better
// final cost.
func coarseFlow(opt FlowOptions) FlowOptions {
	if opt.Iterations == 0 {
		opt.Iterations = 1
		if opt.PartitionsPerMetric == 0 {
			opt.PartitionsPerMetric = 2
		}
	}
	if opt.Inject.MaxRounds == 0 {
		opt.Inject.MaxRounds = 24
	}
	return opt
}

// vcycle runs p inside the V-cycle of p.Multilevel. It has the same anytime
// contract as FlowCtx:
//
//   - A context that is already done (or that fires during coarsening,
//     before any partition exists) returns an error wrapping
//     anytime.ErrNoPartition and the context cause.
//   - A context firing during the coarse solve returns that stage's best
//     partition, projected straight down to the fine level (projection is
//     exact in feasibility and cost, so the salvage costs microseconds).
//   - A context firing during uncoarsening refines as far as it got and
//     projects the rest; Result.Stop records StopDeadline/StopCancelled.
//
// The trace enters one run span with coarsen/construct/uncoarsen (and,
// with FlowRefine, flow-refine) child spans, per-level spans below those,
// and the constructor's own tree below construct. The final Result is over
// the original h; the returned constructed cost is the coarse
// constructor's.
func (p Pipeline) vcycle(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec) (*Result, float64, error) {
	ml := *p.Multilevel
	ml.CoarsenTarget = cmp.Or(ml.CoarsenTarget, 300)
	ml.Workers = max(ml.Workers, 1)
	seed := cmp.Or(p.Seed, 1)
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("htp: multilevel not started: %w", errors.Join(anytime.ErrNoPartition, context.Cause(ctx)))
	}
	if err := spec.Validate(); err != nil {
		return nil, 0, err
	}
	for v := 0; v < h.NumNodes(); v++ {
		if h.NodeSize(hypergraph.NodeID(v)) > spec.Capacity[0] {
			return nil, 0, fmt.Errorf("htp: node %d size %d exceeds C_0 = %d: %w",
				v, h.NodeSize(hypergraph.NodeID(v)), spec.Capacity[0], anytime.ErrOversizedNode)
		}
	}
	// The coarse stage is the pipeline without flow refinement, which runs
	// on the finest level instead, after uncoarsening.
	coarse := p
	coarse.Seed, coarse.Flow, coarse.FlowRefine = seed, coarseFlow(p.Flow), nil
	name, construct, steps, err := coarse.stages()
	if err != nil {
		return nil, 0, err
	}

	scope, sink := p.Span.Enter(p.Observer)
	var start time.Time
	if sink != nil {
		start = time.Now()
	}

	maxCluster := h.TotalSize() / int64(ml.CoarsenTarget)
	if half := (spec.Capacity[0] + 1) / 2; maxCluster > half {
		maxCluster = half
	}
	maxCluster = max(maxCluster, 1)
	var ct0 time.Time
	var coarsenSpan obs.SpanID
	if sink != nil {
		ct0 = time.Now()
		coarsenSpan = scope.Mint()
	}
	stack, err := multilevel.Coarsen(ctx, h, multilevel.CoarsenOptions{
		TargetNodes:    ml.CoarsenTarget,
		MaxClusterSize: maxCluster,
		Workers:        ml.Workers,
		Seed:           seed,
		Observer:       sink,
		Span:           obs.SpanScope{Ctx: scope.Ctx, Parent: coarsenSpan},
	})
	if err != nil {
		emitStop(sink, "error", 0, start, err)
		return nil, 0, err
	}
	if sink != nil {
		obs.Emit(sink, obs.Event{Kind: obs.KindSpan, Phase: "coarsen",
			Span: coarsenSpan, Parent: scope.Parent,
			ElapsedMS: obs.Millis(time.Since(ct0)),
			Detail:    fmt.Sprintf("%d levels, coarsest %d nodes", len(stack.Levels), stack.Coarsest().NumNodes())})
	}
	if ctx.Err() != nil {
		err := fmt.Errorf("htp: multilevel cancelled during coarsening: %w",
			errors.Join(anytime.ErrNoPartition, context.Cause(ctx)))
		emitStop(sink, "error", 0, start, err)
		return nil, 0, err
	}

	// Coarse-level construction. The constructor traces into the run's
	// sink nested under the construct span, its terminal stop turned into
	// a span event named after the algorithm; the composed run emits
	// exactly one stop, after flow refinement.
	var st0 time.Time
	var constructSpan obs.SpanID
	if sink != nil {
		st0 = time.Now()
		constructSpan = scope.Mint()
	}
	stageScope := obs.SpanScope{Ctx: scope.Ctx, Parent: constructSpan}
	// Packing infeasibility at the coarsest level is survivable: cluster
	// sizes there can form subset-sum instances that no carve resolves even
	// with the builder's retry/backtrack pass. Every level finer roughly
	// halves cluster sizes, strictly increasing packing freedom — level 0
	// is the original instance, where construction succeeds whenever the
	// spec is feasible at all — so on a non-cancellation construction
	// failure the engine drops the coarsest level and re-runs the stage one
	// level finer. Uncoarsening then starts from whatever level solved.
	algo := cmp.Or(p.Algo, "flow")
	stageObs := obs.SuppressStop(sink, algo)
	res, constructed, err := compose(ctx, stack.Coarsest(), spec, name, construct, steps, stageObs, stageScope)
	for err != nil && errors.Is(err, anytime.ErrNoPartition) && ctx.Err() == nil && len(stack.Levels) > 0 {
		stack.Levels = stack.Levels[:len(stack.Levels)-1]
		if sink != nil {
			obs.Emit(sink, obs.Event{Kind: obs.KindSpan, Phase: "coarse-fallback",
				Active: stack.Coarsest().NumNodes(),
				Detail: "coarsest level unpackable; retrying one level finer"})
		}
		res, constructed, err = compose(ctx, stack.Coarsest(), spec, name, construct, steps, stageObs, stageScope)
	}
	if err != nil {
		emitStop(sink, "error", 0, start, err)
		return nil, 0, err
	}
	if sink != nil {
		obs.Emit(sink, obs.Event{Kind: obs.KindSpan, Phase: "construct",
			Span: constructSpan, Parent: scope.Parent, Cost: res.Cost,
			Active: stack.Coarsest().NumNodes(), Detail: algo,
			ElapsedMS: obs.Millis(time.Since(st0))})
	}

	var ut0 time.Time
	var uncoarsenSpan obs.SpanID
	if sink != nil {
		ut0 = time.Now()
		uncoarsenSpan = scope.Mint()
	}
	part, cost, salvagedLevels, err := stack.Uncoarsen(ctx, res.Partition, res.Cost, multilevel.UncoarsenOptions{
		MaxPasses: refinePasses,
		Seed:      seed + 11,
		Observer:  sink,
		Span:      obs.SpanScope{Ctx: scope.Ctx, Parent: uncoarsenSpan},
	})
	if err != nil {
		emitStop(sink, "error", 0, start, err)
		return nil, 0, err
	}
	if sink != nil {
		obs.Emit(sink, obs.Event{Kind: obs.KindSpan, Phase: "uncoarsen",
			Span: uncoarsenSpan, Parent: scope.Parent, Cost: cost,
			ElapsedMS: obs.Millis(time.Since(ut0))})
	}
	if salvagedLevels > 0 {
		obs.Salvages.Inc()
		if sink != nil {
			obs.Emit(sink, obs.Event{Kind: obs.KindSalvage, Salvaged: true, Cost: cost,
				Detail: fmt.Sprintf("%d level(s) projected without refinement", salvagedLevels)})
		}
	}
	// Flow refinement runs once, on the finest level, after the FM descent:
	// the descent costs what the FM-only V-cycle costs, and the step only
	// accepts batches that lower the exact hierarchical cost, so the result
	// is never worse than FM-only uncoarsening with the same options.
	if p.FlowRefine != nil && ctx.Err() == nil {
		fr := *p.FlowRefine
		fr.Seed = cmp.Or(fr.Seed, seed+11+29)
		fr.Workers = cmp.Or(fr.Workers, ml.Workers)
		if cost, err = flowRefineStep(fr)(ctx, part, sink, scope); err != nil {
			emitStop(sink, "error", 0, start, err)
			return nil, 0, err
		}
	}

	res.Partition, res.Cost = part, cost
	if stop := anytime.FromContext(ctx); stop != "" {
		res.Stop = stop
	}
	emitStop(sink, string(res.Stop), res.Cost, start, nil)
	return res, constructed, nil
}

package htp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/anytime"
	"repro/internal/flowrefine"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/obs"
)

// MultilevelOptions tunes the V-cycle: coarsening, the coarse-level
// construction strategy, and per-level refinement on the way back down.
type MultilevelOptions struct {
	// CoarsenTarget is the node count at which coarsening stops (the
	// coarsest level the strategy solves). Default 300.
	CoarsenTarget int
	// MaxClusterSize caps coarse-node size. Default
	// min(totalSize/CoarsenTarget, (C_0+1)/2) — clusters stay well under
	// the leaf capacity so the coarse instance keeps packing freedom.
	MaxClusterSize int64
	// Strategy names the coarse-level constructor as Pipeline.Algo does:
	// "flow" (default), "flow+", "rfm", "rfm+", "gfm", or "gfm+". The "+"
	// variants run the hierarchical FM step on the coarsest level before
	// uncoarsening begins — cheap there, and it hands the descent a better
	// starting point.
	Strategy string
	// Flow / RFM / GFM forward options to the corresponding strategy. A
	// zero Seed is replaced by the run Seed; Observer/Progress fields are
	// overridden by the run's sink.
	Flow FlowOptions
	RFM  RFMOptions
	GFM  GFMOptions
	// RefinePasses bounds boundary-refinement passes per level. Default 8.
	RefinePasses int
	// FlowRefine enables flow-based pairwise refinement on the finest level
	// after the FM descent (see internal/flowrefine). Monotone: it only
	// accepts batches that lower the exact hierarchical cost, so a run with
	// FlowRefine never costs more than the same run without it.
	FlowRefine bool
	// FlowRefineOpt tunes the flow-refine stage when FlowRefine is set.
	// Zero fields are defaulted; Seed defaults to the uncoarsening seed
	// (the run Seed + 11) + 29 and Workers to the run Workers. Observer and
	// Span are the run's: the stage traces as a sibling of uncoarsen.
	// Callers that want each accepted move batch re-certified set Certify
	// (internal/verify's Certifier does this for every wired CLI/server
	// path).
	FlowRefineOpt flowrefine.Options
	// Workers parallelizes the coarsener's rating phase. Results are
	// bit-identical at any value. It is deliberately NOT forwarded to
	// Flow.Inject.Workers: the metric engine's sequential and batched
	// schedules produce different (each internally deterministic) metrics,
	// so coupling them would make the V-cycle's output depend on the
	// worker count. Set Flow.Inject.Workers explicitly to parallelize the
	// coarse solve — on a ~300-node coarsest level it rarely pays.
	Workers int
	// Seed makes the whole V-cycle deterministic. Default 1.
	Seed int64
	// Observer receives the full trace: per-level coarsen/uncoarsen
	// events, the coarse strategy's events, refinement passes, and exactly
	// one terminal stop. Nil disables telemetry at zero cost.
	Observer obs.Observer
	// Progress mirrors FlowOptions.Progress.
	Progress obs.ProgressFunc
	// Span nests the run's events in the caller's span tree: the V-cycle
	// enters one run span with coarsen/construct/uncoarsen (and, with
	// FlowRefine, flow-refine) child spans, per-level spans below those,
	// and the coarse strategy's own tree below construct. Zero value is
	// fine.
	Span obs.SpanScope
}

func (o MultilevelOptions) withDefaults() MultilevelOptions {
	if o.CoarsenTarget == 0 {
		o.CoarsenTarget = 300
	}
	if o.Strategy == "" {
		o.Strategy = "flow"
	}
	if o.RefinePasses == 0 {
		o.RefinePasses = 8
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	// The coarse graph has few nodes but — on netlists with long-range
	// connections — its net count still grows with the fine instance:
	// cross-links never become intra-cluster, so every shortest-path tree
	// costs O(fine pins). The flat defaults (4 metric+build cycles, metric
	// run to convergence) multiply that by a large, n-dependent round
	// count. The coarse FLOW stage instead computes ONE metric with a
	// bounded sweep budget and amortizes it over two partition
	// constructions; uncoarsening refinement recovers more than extra
	// metric precision buys. Measured at n=65536 this is 2.4x faster than
	// two converged cycles with ~35% better final cost.
	if o.Flow.Iterations == 0 {
		o.Flow.Iterations = 1
		if o.Flow.PartitionsPerMetric == 0 {
			o.Flow.PartitionsPerMetric = 2
		}
	}
	if o.Flow.Inject.MaxRounds == 0 {
		o.Flow.Inject.MaxRounds = 24
	}
	return o
}

// MultilevelCtx runs the multilevel V-cycle: coarsen h with deterministic
// heavy-edge matching, construct a partition of the coarsest level with the
// configured strategy, then project back down level by level with
// boundary-localized FM refinement. It has the same anytime contract as
// FlowCtx:
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
// The final Result is over the original h. Callers that need certification
// pass it to internal/verify exactly as they would a FlowCtx result — the
// cmd/htpart, htpd, and differential-test paths all do.
func MultilevelCtx(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt MultilevelOptions) (*Result, error) {
	opt = opt.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("htp: multilevel not started: %w", errors.Join(anytime.ErrNoPartition, context.Cause(ctx)))
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for v := 0; v < h.NumNodes(); v++ {
		if h.NodeSize(hypergraph.NodeID(v)) > spec.Capacity[0] {
			return nil, fmt.Errorf("htp: node %d size %d exceeds C_0 = %d: %w",
				v, h.NodeSize(hypergraph.NodeID(v)), spec.Capacity[0], anytime.ErrOversizedNode)
		}
	}
	// The coarse stage is the flat pipeline without flow refinement, which
	// runs on the finest level instead, after uncoarsening.
	construct, steps, err := Pipeline{Algo: opt.Strategy, Seed: opt.Seed,
		Flow: opt.Flow, RFM: opt.RFM, GFM: opt.GFM}.stages()
	if err != nil {
		return nil, err
	}

	sink := obs.Multi(opt.Observer, obs.ProgressObserver(opt.Progress))
	var scope obs.SpanScope
	scope, sink = opt.Span.Enter(sink)
	var start time.Time
	if sink != nil {
		start = time.Now()
	}

	maxCluster := opt.MaxClusterSize
	if maxCluster == 0 {
		maxCluster = h.TotalSize() / int64(opt.CoarsenTarget)
		if half := (spec.Capacity[0] + 1) / 2; maxCluster > half {
			maxCluster = half
		}
		if maxCluster < 1 {
			maxCluster = 1
		}
	}
	var ct0 time.Time
	var coarsenSpan obs.SpanID
	if sink != nil {
		ct0 = time.Now()
		coarsenSpan = scope.Mint()
	}
	stack, err := multilevel.Coarsen(ctx, h, multilevel.CoarsenOptions{
		TargetNodes:    opt.CoarsenTarget,
		MaxClusterSize: maxCluster,
		Workers:        opt.Workers,
		Seed:           opt.Seed,
		Observer:       sink,
		Span:           obs.SpanScope{Ctx: scope.Ctx, Parent: coarsenSpan},
	})
	if err != nil {
		emitStop(sink, "error", 0, start, err)
		return nil, err
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
		return nil, err
	}

	// Coarse-level construction. The strategy traces into the run's sink
	// with its terminal stop suppressed, nested under the construct span;
	// the composed run emits exactly one stop, after flow refinement.
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
	stageObs := obs.SuppressStop(sink)
	res, _, err := compose(ctx, stack.Coarsest(), spec, construct, steps, stageObs, stageScope)
	for err != nil && errors.Is(err, anytime.ErrNoPartition) && ctx.Err() == nil && len(stack.Levels) > 0 {
		stack.Levels = stack.Levels[:len(stack.Levels)-1]
		if sink != nil {
			obs.Emit(sink, obs.Event{Kind: obs.KindSpan, Phase: "coarse-fallback",
				Active: stack.Coarsest().NumNodes(),
				Detail: "coarsest level unpackable; retrying one level finer"})
		}
		res, _, err = compose(ctx, stack.Coarsest(), spec, construct, steps, stageObs, stageScope)
	}
	if err != nil {
		emitStop(sink, "error", 0, start, err)
		return nil, err
	}
	if sink != nil {
		obs.Emit(sink, obs.Event{Kind: obs.KindSpan, Phase: "construct",
			Span: constructSpan, Parent: scope.Parent, Cost: res.Cost,
			Active: stack.Coarsest().NumNodes(), Detail: opt.Strategy,
			ElapsedMS: obs.Millis(time.Since(st0))})
	}

	var ut0 time.Time
	var uncoarsenSpan obs.SpanID
	if sink != nil {
		ut0 = time.Now()
		uncoarsenSpan = scope.Mint()
	}
	p, cost, salvagedLevels, err := stack.Uncoarsen(ctx, res.Partition, res.Cost, multilevel.UncoarsenOptions{
		MaxPasses: opt.RefinePasses,
		Seed:      opt.Seed + 11,
		Observer:  sink,
		Span:      obs.SpanScope{Ctx: scope.Ctx, Parent: uncoarsenSpan},
	})
	if err != nil {
		emitStop(sink, "error", 0, start, err)
		return nil, err
	}
	if sink != nil {
		obs.Emit(sink, obs.Event{Kind: obs.KindSpan, Phase: "uncoarsen",
			Span: uncoarsenSpan, Parent: scope.Parent, Cost: cost,
			ElapsedMS: obs.Millis(time.Since(ut0))})
	}
	if salvagedLevels > 0 {
		obs.Salvages.Add(1)
		if sink != nil {
			obs.Emit(sink, obs.Event{Kind: obs.KindSalvage, Salvaged: true, Cost: cost,
				Detail: fmt.Sprintf("%d level(s) projected without refinement", salvagedLevels)})
		}
	}
	// Flow refinement runs once, on the finest level, after the FM descent:
	// the descent costs what the FM-only V-cycle costs, and the step only
	// accepts batches that lower the exact hierarchical cost, so the result
	// is never worse than FM-only uncoarsening with the same options.
	if opt.FlowRefine && ctx.Err() == nil {
		fr := opt.FlowRefineOpt
		fr.Seed = cmp.Or(fr.Seed, opt.Seed+11+29)
		fr.Workers = cmp.Or(fr.Workers, opt.Workers)
		if cost, err = flowRefineStep(fr)(ctx, p, sink, scope); err != nil {
			emitStop(sink, "error", 0, start, err)
			return nil, err
		}
	}

	res.Partition, res.Cost = p, cost
	if stop := anytime.FromContext(ctx); stop != "" {
		res.Stop = stop
	}
	emitStop(sink, string(res.Stop), res.Cost, start, nil)
	return res, nil
}

package htp

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/anytime"
	"repro/internal/flowrefine"
	"repro/internal/fm"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// Pipeline is the one construct-then-refine composition every solve runs:
// a constructor (FLOW, RFM or GFM) builds a partition, then refine steps
// improve it in place, in order — hierarchical FM refinement for the "+"
// variants (the paper's Table 3), then flow-based pairwise refinement when
// FlowRefine is set. It runs flat, or, with Multilevel set, inside the
// multilevel V-cycle: the constructor and FM step on the coarsest level,
// FM refinement on every level of the way back down, and the flow-refine
// step on the finest.
type Pipeline struct {
	// Algo names the constructor the way the CLIs do: "flow" (the
	// default), "rfm" or "gfm", with a "+" suffix for the FM step.
	Algo string
	// Seed seeds the constructor; a non-zero Flow.Seed overrides it for
	// FLOW. Default 1.
	Seed int64
	// Flow forwards options to FLOW. Its Observer and Span are replaced by
	// the pipeline's.
	Flow FlowOptions
	// FlowRefine, when non-nil, appends flow-based pairwise refinement
	// (internal/flowrefine) as the last step. A zero Seed defaults to the
	// constructor's seed (the V-cycle's: Seed + 40); Observer and Span are
	// the pipeline's.
	FlowRefine *flowrefine.Options
	// Multilevel, when non-nil, runs the pipeline inside the multilevel
	// V-cycle (see Multilevel).
	Multilevel *Multilevel
	// Observer receives the whole run's trace under one span, ending in
	// exactly one terminal stop that carries the final cost. Nil disables
	// telemetry at zero cost.
	Observer obs.Observer
	// Span nests the run in the caller's span tree. Zero value is fine.
	Span obs.SpanScope
}

// constructor is a pipeline's first stage: it builds a partition of h,
// tracing into o under span.
type constructor func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, o obs.Observer, span obs.SpanScope) (*Result, error)

// refineStep improves p in place, tracing into o under span, and returns
// the new cost. Every intermediate state is a valid partition, so an
// interrupted step returns the best cost it reached.
type refineStep func(ctx context.Context, p *hierarchy.Partition, o obs.Observer, span obs.SpanScope) (float64, error)

// stages resolves p.Algo to its constructor's name ("flow", "rfm" or
// "gfm"), the constructor and its refine steps. It is the only place those
// names, each with an optional "+", are resolved. The refine steps derive
// their seeds from the constructor's seed (zero defaulted to 1): the FM
// step uses it plus 7, the flow-refine step uses it as is unless
// FlowRefine.Seed is set.
func (p Pipeline) stages() (string, constructor, []refineStep, error) {
	algo := p.Algo
	if algo == "" {
		algo = "flow"
	}
	base, plus := strings.CutSuffix(algo, "+")
	var seed int64
	var construct constructor
	switch base {
	case "flow":
		opt := p.Flow
		opt.Seed = cmp.Or(opt.Seed, p.Seed, 1)
		seed = opt.Seed
		construct = func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, o obs.Observer, span obs.SpanScope) (*Result, error) {
			fo := opt
			fo.Observer, fo.Span = o, span
			return FlowCtx(ctx, h, spec, fo)
		}
	case "rfm":
		seed = cmp.Or(p.Seed, 1)
		construct = func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, o obs.Observer, span obs.SpanScope) (*Result, error) {
			return RFMCtx(ctx, h, spec, RFMOptions{Seed: seed, Observer: o, Span: span})
		}
	case "gfm":
		seed = cmp.Or(p.Seed, 1)
		construct = func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, o obs.Observer, span obs.SpanScope) (*Result, error) {
			return GFMCtx(ctx, h, spec, GFMOptions{Seed: seed, Observer: o, Span: span})
		}
	default:
		return "", nil, nil, fmt.Errorf("htp: unknown algorithm %q: %w", p.Algo, anytime.ErrInvalidSpec)
	}
	var steps []refineStep
	if plus {
		steps = append(steps, fmStep(seed+7))
	}
	if p.FlowRefine != nil {
		fr := *p.FlowRefine
		fr.Seed = cmp.Or(fr.Seed, seed)
		steps = append(steps, flowRefineStep(fr))
	}
	return base, construct, steps, nil
}

// fmStep is the "+" step: the hierarchical FM refinement of [9].
func fmStep(seed int64) refineStep {
	return func(ctx context.Context, p *hierarchy.Partition, o obs.Observer, span obs.SpanScope) (float64, error) {
		cost, _ := fm.RefineHierarchicalCtx(ctx, p, fm.RefineOptions{
			Rng: rand.New(rand.NewSource(seed)), Observer: o, Span: span})
		return cost, nil
	}
}

// flowRefineStep is flow-based pairwise refinement. An error means a
// contained worker panic or a Certify rejection; the partition is then in
// its last certified-valid state.
func flowRefineStep(opt flowrefine.Options) refineStep {
	return func(ctx context.Context, p *hierarchy.Partition, o obs.Observer, span obs.SpanScope) (float64, error) {
		opt.Observer, opt.Span = o, span
		cost, _, _, err := flowrefine.RefineCtx(ctx, p, opt)
		return cost, err
	}
}

// PipelineCtx runs p on h: the constructor, then each refine step, flat
// or inside the V-cycle. It returns the result and the constructed
// (pre-refinement) cost; the V-cycle's is its coarsest level's, which
// projection carries down unchanged. The anytime contract is the
// constructor's: cancellation before it has a partition errors with
// anytime.ErrNoPartition; cancellation after it stops the steps early and
// returns the best cost reached, with Result.Stop recording why.
func PipelineCtx(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p Pipeline) (*Result, float64, error) {
	if p.Multilevel != nil {
		return p.vcycle(ctx, h, spec)
	}
	name, construct, steps, err := p.stages()
	if err != nil {
		return nil, 0, err
	}
	return compose(ctx, h, spec, name, construct, steps, p.Observer, p.Span)
}

// compose runs construct and then steps as one traced run. With no steps
// the constructor's trace is the run's. Otherwise the run enters one span,
// the constructor's stop becomes a span event named after it (name), and
// exactly one terminal stop is emitted after the last step, carrying the
// final cost.
func compose(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, name string, construct constructor, steps []refineStep, sink obs.Observer, span obs.SpanScope) (*Result, float64, error) {
	if len(steps) == 0 {
		res, err := construct(ctx, h, spec, sink, span)
		if err != nil {
			return nil, 0, err
		}
		return res, res.Cost, nil
	}
	scope, sink := span.Enter(sink)
	var start time.Time
	if sink != nil {
		start = time.Now()
	}
	res, err := construct(ctx, h, spec, obs.SuppressStop(sink, name), scope)
	if err != nil {
		emitStop(sink, "error", 0, start, err)
		return nil, 0, err
	}
	initial := res.Cost
	for _, step := range steps {
		if res.Cost, err = step(ctx, res.Partition, sink, scope); err != nil {
			emitStop(sink, "error", 0, start, err)
			return nil, 0, err
		}
	}
	if stop := anytime.FromContext(ctx); stop != "" {
		res.Stop = stop
	}
	emitStop(sink, string(res.Stop), res.Cost, start, nil)
	return res, initial, nil
}

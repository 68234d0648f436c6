package htp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anytime"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/obs"
)

// Result reports the outcome of a partitioning run.
type Result struct {
	Partition *hierarchy.Partition
	Cost      float64
	// Iterations actually executed (Algorithm 1's N, or FM passes etc.).
	Iterations int
	// Stop records why the run ended: StopConverged for a full normal run,
	// StopMaxRounds when an internal round budget expired, StopDeadline /
	// StopCancelled when the context fired and Partition is the best found
	// so far.
	Stop anytime.Stop
	// Failures collects contained per-iteration errors (failed
	// constructions, recovered panics with their stacks) from iterations
	// whose siblings still produced the result. Empty on a clean run.
	Failures []error
	// MetricStats aggregates the flow-injection work over all iterations
	// (FLOW only): Rounds, Injections, and TreeNets sum across iterations,
	// MaxFlow is the maximum, and Converged is the AND — one unconverged
	// metric marks the whole run, while iterations that never produced
	// stats (cancelled or crashed before the metric ran) are excluded from
	// all of it. Identical at any GOMAXPROCS.
	MetricStats inject.Stats
}

// FlowOptions tunes Algorithm 1.
type FlowOptions struct {
	// Iterations is the paper's N: metric + construction rounds, keeping
	// the best result. Default 4.
	Iterations int
	// PartitionsPerMetric constructs several partitions from each computed
	// metric (the paper's §5 suggestion — the metric dominates the run
	// time, so extra constructions are nearly free). Default 1.
	PartitionsPerMetric int
	// Inject forwards options to the spreading-metric computation; its Rng
	// is overridden by Seed-derived sources for reproducibility.
	Inject inject.Options
	// Build forwards options to the top-down construction.
	Build BuildOptions
	// Seed makes the whole run deterministic. Default 1.
	Seed int64
	// Observer receives the run's trace events (see internal/obs):
	// per-round and per-metric events tagged with their iteration,
	// build-done and iter-done completions, best-so-far updates, salvage
	// events, and exactly one terminal stop event. Inject.Observer is
	// overridden by the run's iteration-tagged observer, like Inject.Rng.
	// Events arrive one call at a time and in the order a one-worker run
	// emits them, however many iterations run at once, so the observer
	// needs no locking. Nil disables telemetry at zero cost.
	Observer obs.Observer
	// Span nests the run's events in the caller's span tree: the run
	// enters one span, each iteration and the metric engine below it get
	// IDs reserved in canonical order (so IDs do not depend on which worker
	// runs which iteration). Span IDs come from a plain counter, never the
	// run's seeds, so tracing cannot perturb results. Zero value is fine.
	Span obs.SpanScope
}

func (o FlowOptions) withDefaults() FlowOptions {
	if o.Iterations == 0 {
		o.Iterations = 4
	}
	if o.PartitionsPerMetric == 0 {
		o.PartitionsPerMetric = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// flowIterFault is a test-only fault-injection seam: when non-nil it is
// invoked at the top of every iteration (inside the panic-recovery scope)
// and may panic to simulate a crashed iteration. Never set outside tests.
var flowIterFault func(iter int)

// flowIterOut carries one Flow iteration's results to the aggregation step.
type flowIterOut struct {
	partition *hierarchy.Partition
	cost      float64
	stats     inject.Stats
	ranMetric bool  // stats are meaningful (possibly partial)
	injectErr error // fatal: bad spec / oversized nodes
	buildErr  error // per-construction; other constructions may succeed
	panicErr  error // recovered panic, with stack
}

// FlowCtx runs Algorithm 1: N times, compute a spreading metric by
// stochastic flow injection (Algorithm 2) and construct a hierarchical tree
// partition from it (Algorithm 3); output the best valid partition found.
// The iterations run concurrently on min(GOMAXPROCS, N) workers and produce
// the same result at any GOMAXPROCS: per-iteration seeds are pre-drawn in
// order and results are reduced in iteration order.
//
// The context makes Algorithm 1 an anytime engine:
//
//   - A context that is already done returns promptly with an error
//     wrapping anytime.ErrNoPartition and the context cause.
//   - When the context fires mid-run, the best valid partition found so far
//     is returned with Result.Stop set to StopDeadline or StopCancelled.
//     The metric computation dominates the run time while construction is
//     cheap and bounded, so an iteration interrupted mid-metric salvages
//     one construction from its partial metric — even a very short deadline
//     yields a valid (if unpolished) partition.
//   - A panic inside one iteration is contained: it becomes an error (with
//     stack) in Result.Failures and sibling iterations still win. Only if
//     every iteration fails does FlowCtx return an error.
//
// The N iterations run on a pool of min(GOMAXPROCS, N) workers that take
// them in index order, so at most that many metric engines are alive at
// once and the in-flight iterations are always the oldest unfinished ones.
// With one worker the iterations run inline, one after another. When the
// context fires, every in-flight iteration salvages from its partial metric.
func FlowCtx(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt FlowOptions) (*Result, error) {
	opt = opt.withDefaults()
	if opt.Iterations < 0 || opt.PartitionsPerMetric < 0 {
		return nil, fmt.Errorf("htp: flow needs non-negative counts, got %d iterations and %d partitions per metric: %w",
			opt.Iterations, opt.PartitionsPerMetric, anytime.ErrInvalidSpec)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("htp: flow not started: %w", errors.Join(anytime.ErrNoPartition, context.Cause(ctx)))
	}
	workers := min(runtime.GOMAXPROCS(0), opt.Iterations)
	// Telemetry: one sink for the whole run. All of this is skipped — sink
	// stays nil, emission sites reduce to a nil check — when no Observer
	// is set.
	sink := opt.Observer
	var start time.Time
	if sink != nil {
		start = time.Now()
	}
	// Span identity: the run enters one span (stamped on run-level events
	// — best updates and the stop) and reserves two IDs per iteration, for
	// the iteration and its metric engine, in canonical order, so span IDs
	// do not depend on the schedule. Concurrent iterations emit through a
	// sequencer, which hands their events to the sink in the one-worker
	// order. All skipped when telemetry is off.
	var scope obs.SpanScope
	scope, sink = opt.Span.Enter(sink)
	var iterIDs []*obs.SpanCtx
	var seq *obs.Sequencer
	if sink != nil {
		iterIDs = make([]*obs.SpanCtx, opt.Iterations)
		for i := range iterIDs {
			iterIDs[i] = scope.Ctx.Reserve(2)
		}
		if workers > 1 {
			seq = obs.NewSequencer(sink, opt.Iterations)
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	type iterSeeds struct {
		inject int64
		builds []int64
	}
	seeds := make([]iterSeeds, opt.Iterations)
	for i := range seeds {
		seeds[i].inject = rng.Int63()
		seeds[i].builds = make([]int64, opt.PartitionsPerMetric)
		for c := range seeds[i].builds {
			seeds[i].builds[c] = rng.Int63()
		}
	}

	outs := make([]flowIterOut, opt.Iterations)

	runIter := func(i int) {
		out := &outs[i]
		defer func() {
			if r := recover(); r != nil {
				out.panicErr = fmt.Errorf("htp: flow iteration %d panicked: %v\n%s", i, r, debug.Stack())
			}
		}()
		iterSink := sink
		if seq != nil {
			// Runs before the recovery above, so a panicking sink is
			// contained like any other fault of this iteration.
			defer seq.Done(i)
			iterSink = seq.Producer(i)
		}
		if flowIterFault != nil {
			flowIterFault(i)
		}
		if ctx.Err() != nil {
			return // cancelled before this iteration started
		}
		iterObs := obs.WithIter(iterSink, i+1)
		var it0 time.Time
		var iterSpan obs.SpanID
		var ids *obs.SpanCtx
		if iterObs != nil {
			ids = iterIDs[i]
			iterSpan = ids.NewSpan()
			iterObs = obs.WithSpan(iterObs, iterSpan, scope.Parent)
			it0 = time.Now()
		}
		injOpt := opt.Inject
		injOpt.Rng = rand.New(rand.NewSource(seeds[i].inject))
		injOpt.Observer = iterObs
		injOpt.Span = obs.SpanScope{Ctx: ids, Parent: iterSpan}
		m, st, err := inject.ComputeMetricCtx(ctx, h, spec, injOpt)
		if m != nil {
			out.stats, out.ranMetric = st, true
		}
		if err != nil {
			if ctx.Err() != nil && m != nil {
				// Interrupted mid-metric: salvage one construction from the
				// partial metric. Construction is cheap next to the metric
				// (paper §3.3), so this runs to completion regardless of the
				// context and turns the work already sunk into a valid
				// best-so-far candidate.
				var bt time.Time
				if iterObs != nil {
					bt = time.Now()
				}
				salvageBuild(out, h, spec, m.D, opt.Build, seeds[i].builds[0])
				obs.Salvages.Inc()
				if iterObs != nil {
					ev := obs.Event{Kind: obs.KindSalvage, Salvaged: true,
						Cost: out.cost, ElapsedMS: obs.Millis(time.Since(bt))}
					if out.buildErr != nil {
						ev.Detail = out.buildErr.Error()
					}
					obs.Emit(iterObs, ev)
				}
				return
			}
			if ctx.Err() != nil && errors.Is(err, context.Cause(ctx)) {
				// The context fired between the check above and the metric's
				// own entry check, so the metric never started: this
				// iteration simply did not run.
				return
			}
			out.injectErr = err
			return
		}
		for c := 0; c < opt.PartitionsPerMetric; c++ {
			// The first construction always completes (bounded and cheap);
			// extra constructions and interrupted iterations honor ctx. This
			// guarantees every iteration that finished its metric yields a
			// candidate even when the deadline lands between metric and
			// build.
			buildCtx := ctx
			if c == 0 {
				//htpvet:allow ctxflow -- deliberate detach: the first construction is cheap and bounded and must complete so a deadline landing between metric and build still yields a candidate; the detached BuildCtx still polls its own (background) context, so no ctxpoll debt hides behind the detach
				buildCtx = context.Background()
			} else if ctx.Err() != nil {
				return
			}
			bOpt := opt.Build
			bOpt.Rng = rand.New(rand.NewSource(seeds[i].builds[c]))
			var bt time.Time
			if iterObs != nil {
				bt = time.Now()
			}
			p, err := BuildCtx(buildCtx, h, spec, m.D, bOpt)
			if err != nil {
				if out.buildErr == nil {
					out.buildErr = err
				}
				continue
			}
			if err := p.Validate(); err != nil {
				if out.buildErr == nil {
					out.buildErr = fmt.Errorf("htp: constructed partition invalid: %w", err)
				}
				continue
			}
			cost := p.Cost()
			if iterObs != nil {
				obs.Emit(iterObs, obs.Event{Kind: obs.KindBuildDone,
					Cost: cost, ElapsedMS: obs.Millis(time.Since(bt))})
			}
			if out.partition == nil || cost < out.cost {
				out.partition, out.cost = p, cost
			}
		}
		if iterObs != nil {
			ev := obs.Event{Kind: obs.KindIterDone, ElapsedMS: obs.Millis(time.Since(it0))}
			if out.partition != nil {
				ev.Cost = out.cost
			}
			obs.Emit(iterObs, ev)
		}
	}

	if workers <= 1 {
		for i := 0; i < opt.Iterations && ctx.Err() == nil; i++ {
			runIter(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1) - 1)
					if i >= opt.Iterations {
						return
					}
					runIter(i)
				}
			}()
		}
		wg.Wait()
	}

	best := &Result{Iterations: opt.Iterations}
	converged := true
	var firstErr error
	for i := range outs {
		if err := outs[i].injectErr; err != nil {
			// Fatal for the whole run: a bad spec or oversized node fails
			// every iteration identically.
			emitStop(sink, "error", 0, start, err)
			return nil, err
		}
		if err := outs[i].panicErr; err != nil {
			best.Failures = append(best.Failures, err)
			if firstErr == nil {
				firstErr = err
			}
		}
		if err := outs[i].buildErr; err != nil {
			best.Failures = append(best.Failures, err)
			if firstErr == nil {
				firstErr = err
			}
		}
		if outs[i].ranMetric {
			st := outs[i].stats
			best.MetricStats.Rounds += st.Rounds
			best.MetricStats.Injections += st.Injections
			best.MetricStats.TreeNets += st.TreeNets
			// The AND across iterations: one unconverged metric marks the
			// whole run (iterations that never ran — cancelled or crashed
			// before producing stats — are excluded).
			converged = converged && st.Converged
			if st.MaxFlow > best.MetricStats.MaxFlow {
				best.MetricStats.MaxFlow = st.MaxFlow
			}
		}
		if outs[i].partition != nil && (best.Partition == nil || outs[i].cost < best.Cost) {
			best.Partition = outs[i].partition
			best.Cost = outs[i].cost
			if sink != nil {
				// Best-so-far updates are emitted here, in canonical
				// iteration order, so every schedule traces the same
				// improvement sequence.
				obs.Emit(sink, obs.Event{Kind: obs.KindBest, Iter: i + 1, Cost: best.Cost})
			}
		}
	}
	best.MetricStats.Converged = converged

	if best.Partition == nil {
		join := []error{anytime.ErrNoPartition}
		if firstErr != nil {
			join = append(join, firstErr)
		}
		if ctx.Err() != nil {
			join = append(join, context.Cause(ctx))
		}
		err := fmt.Errorf("htp: %w", errors.Join(join...))
		emitStop(sink, "error", 0, start, err)
		return nil, err
	}
	switch {
	case ctx.Err() != nil:
		best.Stop = anytime.FromContext(ctx)
	case !converged:
		best.Stop = anytime.StopMaxRounds
	default:
		best.Stop = anytime.StopConverged
	}
	emitStop(sink, string(best.Stop), best.Cost, start, nil)
	return best, nil
}

// emitStop emits the run's single terminal stop event: the stop reason (or
// "error"), the final best cost, and the whole-run wall time. No-op when
// telemetry is off.
func emitStop(sink obs.Observer, reason string, cost float64, start time.Time, err error) {
	if sink == nil {
		return
	}
	ev := obs.Event{Kind: obs.KindStop, Reason: reason, Cost: cost,
		ElapsedMS: obs.Millis(time.Since(start))}
	if err != nil {
		ev.Detail = err.Error()
	}
	obs.Emit(sink, ev)
}

// salvageBuild runs one construction from a (possibly partial) metric under
// no context, recording the result on out. Panics propagate to runIter's
// recovery.
func salvageBuild(out *flowIterOut, h *hypergraph.Hypergraph, spec hierarchy.Spec, d []float64, bOpt BuildOptions, seed int64) {
	bOpt.Rng = rand.New(rand.NewSource(seed))
	p, err := BuildCtx(context.Background(), h, spec, d, bOpt)
	if err != nil {
		out.buildErr = err
		return
	}
	if err := p.Validate(); err != nil {
		out.buildErr = fmt.Errorf("htp: constructed partition invalid: %w", err)
		return
	}
	out.partition, out.cost = p, p.Cost()
}

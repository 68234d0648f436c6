package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"repro/internal/anytime"
	"repro/internal/flowrefine"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/verify"
)

// Solvers groups the solver entry points the daemon drives — the seam the
// chaos harness wraps. Both follow the anytime contract: on deadline or
// cancellation they return the best certified-able result found so far,
// erroring only when nothing valid exists.
type Solvers struct {
	// Pipeline runs every rung but metric salvage (htp.PipelineCtx).
	Pipeline func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error)
	// Salvage takes the job's span scope explicitly (Pipeline carries it
	// in its options): without it, the inject call would start a fresh
	// span ID space colliding with the job's own IDs in the merged trace.
	Salvage func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, seed int64, o obs.Observer, span obs.SpanScope) (*htp.Result, error)
}

// RealSolvers returns the production entry points.
func RealSolvers() *Solvers {
	return &Solvers{Pipeline: htp.PipelineCtx, Salvage: metricSalvage}
}

// salvageGrace is the detached construction window of the final ladder
// rung: the partial metric in hand is only useful if a build from it is
// allowed to finish, so the build runs under its own short deadline rather
// than the (already expiring) job budget.
const salvageGrace = 2 * time.Second

// metricSalvage is the last rung of the degradation ladder: compute a
// spreading metric under whatever budget remains — a cancelled computation
// still yields a usable partial metric — then carve one partition from it
// under a small detached grace window. This is the job-level analog of the
// solver-internal salvage path from PR 1.
func metricSalvage(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, seed int64, o obs.Observer, span obs.SpanScope) (*htp.Result, error) {
	m, _, merr := inject.ComputeMetricCtx(ctx, h, spec,
		inject.Options{Rng: rand.New(rand.NewSource(seed)), Observer: obs.SuppressStop(o), Span: span})
	if m == nil {
		return nil, merr
	}
	if merr != nil && (errors.Is(merr, anytime.ErrInvalidSpec) || errors.Is(merr, anytime.ErrOversizedNode)) {
		return nil, merr
	}
	bctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), salvageGrace)
	defer cancel()
	p, err := htp.BuildCtx(bctx, h, spec, m.D, htp.BuildOptions{Rng: rand.New(rand.NewSource(seed + 1))})
	if err != nil {
		return nil, err
	}
	stop := anytime.FromContext(ctx)
	if stop == "" {
		stop = anytime.StopConverged
	}
	cost := p.Cost()
	obs.Emit(o, obs.Event{Kind: obs.KindSalvage, Cost: cost, Salvaged: true,
		Span: span.Mint(), Parent: span.Parent})
	return &htp.Result{Partition: p, Cost: cost, Iterations: 1, Stop: stop}, nil
}

// rung is one step of the degradation ladder: the pipeline it runs (nil
// means metric salvage) and frac, the cumulative share of the job budget
// it may consume from the job's start.
type rung struct {
	name     string
	frac     float64
	pipeline *htp.Pipeline
}

// ladder is j's degradation ladder. Small jobs get FLOW for the first 60%
// of the budget, GFM up to 85%, and metric salvage the remainder. Jobs at
// or above Config.MultilevelNodes start with the V-cycle — flat FLOW's
// metric engine is superlinear in instance size — and the flat rungs
// become fallbacks. With Config.FlowRefine the V-cycle rung becomes "mlf",
// the flow-refined V-cycle, with the same budget share: flow refinement is
// monotone (accept-only-improving), so on deadline it degrades to plain
// multilevel quality rather than failing. Every rung's result passes the
// same certification gate before it is served.
func (s *Server) ladder(j *Job) []rung {
	flow := &htp.Pipeline{Flow: htp.FlowOptions{Iterations: j.Spec.Iters}}
	gfm := &htp.Pipeline{Algo: "gfm"}
	if j.h.NumNodes() < s.cfg.MultilevelNodes {
		return []rung{{"flow", 0.60, flow}, {"gfm", 0.85, gfm}, {"salvage", 1.00, nil}}
	}
	ml := rung{"multilevel", 0.55, &htp.Pipeline{Multilevel: &htp.Multilevel{}}}
	if s.cfg.FlowRefine {
		ml.name = "mlf"
		ml.pipeline.FlowRefine = &flowrefine.Options{Certify: verify.Certifier()}
	}
	return []rung{ml, {"flow", 0.75, flow}, {"gfm", 0.90, gfm}, {"salvage", 1.00, nil}}
}

// solveOutcome is what the ladder hands back to the worker.
type solveOutcome struct {
	res      *htp.Result
	stage    string
	salvaged bool
	attempts int
	retries  int
	degraded int
	err      error
}

// permanentErr reports whether err can never succeed on retry: malformed
// specs and oversized nodes fail identically every time, so the job fails
// fast instead of burning its budget.
func permanentErr(err error) bool {
	return errors.Is(err, anytime.ErrInvalidSpec) || errors.Is(err, anytime.ErrOversizedNode)
}

// errCertFailed marks a result the independent verifier rejected — a solver
// bug. It is treated as transient (the retry re-runs with a different
// derived seed) but never served.
var errCertFailed = errors.New("result failed independent certification")

// solveJob runs the degradation ladder for j under ctx. Every rung gets a
// slice of the deadline budget and up to MaxAttempts tries with jittered
// exponential backoff on transient failures (contained panics, infeasible
// runs, certification rejects). Permanent errors abort the whole ladder.
// Whatever the rung, a result is returned only after internal/verify
// re-certified it from scratch.
func (s *Server) solveJob(ctx context.Context, j *Job) solveOutcome {
	out := solveOutcome{}
	start := time.Now()
	budget := s.jobBudget(j)
	// Deterministic backoff jitter: derived from the job seed, so a re-run
	// of the same job schedules identically.
	jitter := rand.New(rand.NewSource(j.Spec.Seed ^ 0x5eed))

	var lastErr error
	rungs := s.ladder(j)
	for ri, r := range rungs {
		rungDeadline := start.Add(time.Duration(float64(budget) * r.frac))
		rctx, cancel := context.WithDeadline(ctx, rungDeadline)

		for attempt := 1; attempt <= s.cfg.MaxAttempts; attempt++ {
			if rctx.Err() != nil || ctx.Err() != nil {
				break
			}
			out.attempts++
			seed := attemptSeed(j.Spec.Seed, ri, attempt)
			res, err := s.runAttempt(rctx, j, r, seed)
			if err == nil {
				if vrep := verify.Result(res); !vrep.OK() {
					cCertFailures.Add(1)
					err = fmt.Errorf("%w: %v", errCertFailed, vrep.Err())
				} else {
					out.res = res
					out.stage = r.name
					out.salvaged = r.pipeline == nil || resultSalvaged(res)
					out.degraded = ri
					cancel()
					return out
				}
			}
			lastErr = err
			if permanentErr(err) {
				cancel()
				out.err = err
				return out
			}
			// Transient: back off and retry while the rung still has time.
			if attempt < s.cfg.MaxAttempts && rctx.Err() == nil {
				out.retries++
				cRetries.Add(1)
				backoffSleep(rctx, s.cfg.BaseBackoff, attempt, jitter)
			}
		}
		cancel()
		if ctx.Err() != nil && !errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
			// The job itself was cancelled (client or shutdown): no point
			// degrading further.
			break
		}
		if ri < len(rungs)-1 {
			cDegradations.Add(1)
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("budget exhausted: %w", anytime.ErrNoPartition)
	}
	out.err = lastErr
	return out
}

// runAttempt executes one rung attempt with panic containment: an injected
// or genuine panic surfaces as a transient error carrying the stack, never
// as a dead worker.
func (s *Server) runAttempt(ctx context.Context, j *Job, r rung, seed int64) (res *htp.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = fmt.Errorf("attempt panicked: %v\n%s", v, debug.Stack())
		}
	}()
	// All rungs but the last suppress their terminal stop: the job emits
	// exactly one job-level stop event when it finishes, whichever rung
	// served (the PR-3 composition pattern for "+" pipelines). Each attempt
	// runs under its own span nested in the job root, so the trace shows
	// where the budget went rung by rung; the scope hands the job's span
	// minter down so solver-internal spans share the ID space.
	o := obs.SuppressStop(j.sink)
	var scope obs.SpanScope
	if o != nil {
		rungSpan := j.spans.NewSpan()
		t0 := time.Now()
		defer func() {
			obs.Emit(j.sink, obs.Event{
				Kind: obs.KindSpan, Phase: "rung:" + r.name,
				Span: rungSpan, Parent: j.rootSpan,
				ElapsedMS: obs.Millis(time.Since(t0)),
			})
		}()
		o = obs.WithSpan(o, rungSpan, j.rootSpan)
		scope = obs.SpanScope{Ctx: j.spans, Parent: rungSpan}
	}
	if r.pipeline == nil {
		return s.solvers.Salvage(ctx, j.h, j.pspec, seed, o, scope)
	}
	p := *r.pipeline
	p.Seed, p.Observer, p.Span = seed, o, scope
	res, _, err = s.solvers.Pipeline(ctx, j.h, j.pspec, p)
	return res, err
}

// attemptSeed derives a distinct deterministic seed per (job, rung,
// attempt), so retries explore different random schedules while the whole
// job stays a pure function of its submitted seed.
func attemptSeed(jobSeed int64, rungIdx, attempt int) int64 {
	s := uint64(jobSeed)*0x9e3779b97f4a7c15 + uint64(rungIdx)*0x1000193 + uint64(attempt)
	s ^= s >> 31
	if s == 0 {
		s = 1
	}
	return int64(s & 0x7fffffffffffffff)
}

// resultSalvaged reports whether a FLOW result was built by the in-solver
// salvage path (stop reason deadline/cancelled with a live partition).
func resultSalvaged(res *htp.Result) bool {
	return res != nil && res.Partition != nil &&
		(res.Stop == anytime.StopDeadline || res.Stop == anytime.StopCancelled)
}

// backoffSleep waits base·2^(attempt-1) plus deterministic jitter in
// [0, base), capped at maxBackoff, returning early if ctx fires.
const maxBackoff = 2 * time.Second

func backoffSleep(ctx context.Context, base time.Duration, attempt int, jitter *rand.Rand) {
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	d := base << uint(attempt-1)
	if d > maxBackoff {
		d = maxBackoff
	}
	d += time.Duration(jitter.Int63n(int64(base)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

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
	"repro/internal/htp"
	"repro/internal/obs"
	"repro/internal/verify"
)

// rung is one step of the degradation ladder: the pipeline it runs and
// frac, the cumulative share of the job budget it may consume from the
// job's start.
type rung struct {
	name     string
	frac     float64
	pipeline htp.Pipeline
}

// ladder is j's degradation ladder. Small jobs get FLOW for the first 60%
// of the budget, GFM up to 85%, and salvage the remainder. Salvage is
// Algorithm 1 with N = 1: one metric and one carve, and a metric the
// deadline interrupts still yields a carve (FLOW's salvage construction).
// Jobs at or above Config.MultilevelNodes start with the V-cycle — flat
// FLOW's metric engine is superlinear in instance size — and the flat
// rungs become fallbacks. With Config.FlowRefine the V-cycle rung becomes
// "mlf", the flow-refined V-cycle, with the same budget share: flow
// refinement is monotone (accept-only-improving), so on deadline it
// degrades to plain multilevel quality rather than failing. Every rung's
// result passes the same certification gate before it is served.
func (s *Server) ladder(j *Job) []rung {
	flow := htp.Pipeline{Flow: htp.FlowOptions{Iterations: j.Spec.Iters}}
	gfm := htp.Pipeline{Algo: "gfm"}
	salvage := htp.Pipeline{Flow: htp.FlowOptions{Iterations: 1}}
	if j.h.NumNodes() < s.cfg.MultilevelNodes {
		return []rung{{"flow", 0.60, flow}, {"gfm", 0.85, gfm}, {"salvage", 1.00, salvage}}
	}
	ml := rung{"multilevel", 0.55, htp.Pipeline{Multilevel: &htp.Multilevel{}}}
	if s.cfg.FlowRefine {
		ml.name = "mlf"
		ml.pipeline.FlowRefine = &flowrefine.Options{Certify: verify.Certifier()}
	}
	return []rung{ml, {"flow", 0.75, flow}, {"gfm", 0.90, gfm}, {"salvage", 1.00, salvage}}
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
				if vrep := certify(j, res); !vrep.OK() {
					cCertFailures.Add(1)
					err = fmt.Errorf("%w: %v", errCertFailed, vrep.Err())
				} else {
					out.res = res
					out.stage = r.name
					out.salvaged = r.name == "salvage" || resultSalvaged(res)
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

// certify runs the independent certifier on res and traces it as a
// "certify" span under the job root.
func certify(j *Job, res *htp.Result) *verify.Report {
	t0 := time.Now()
	vrep := verify.Result(res)
	ev := obs.Event{Kind: obs.KindSpan, Phase: "certify", Span: j.spans.NewSpan(), Parent: j.rootSpan,
		ElapsedMS: obs.Millis(time.Since(t0))}
	if !vrep.OK() {
		ev.Detail = vrep.Err().Error()
	}
	obs.Emit(j.sink, ev)
	return vrep
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
	// Every rung's terminal stop becomes a span event named after the
	// rung: the job emits exactly one job-level stop event when it
	// finishes, whichever rung served (the composition pattern of the "+"
	// pipelines). Each attempt runs under its own span nested in the job
	// root, so the trace shows where the budget went rung by rung; the
	// scope hands the job's span minter down so solver-internal spans share
	// the ID space.
	o := obs.SuppressStop(j.sink, r.name)
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
	p := r.pipeline
	p.Seed, p.Observer, p.Span = seed, o, scope
	res, _, err = s.cfg.Solver(ctx, j.h, j.pspec, p)
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

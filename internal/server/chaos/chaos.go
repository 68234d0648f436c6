// Package chaos is the fault-injection harness for htpd. It wraps the
// daemon's solver seam (server.Config.Solver, one function that every ladder
// rung calls) with deterministic, counter-based faults — panics, transient
// errors, delays, and spurious context cancels — so tests can drive hundreds
// of jobs through a misbehaving solver stack and assert the daemon's hard
// invariants: every job ends in exactly one terminal state, nothing
// uncertified is ever served, and no goroutines leak.
//
// Injection is counter-based rather than probabilistic: fault k fires on
// every Nth attempt (a global attempt counter shared across jobs), so a
// failing chaos run reproduces exactly from the same configuration. Faults
// compose: an attempt may be delayed, spuriously cancelled, and then panic.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
)

// Config selects which faults fire and how often. A zero frequency disables
// that fault. Frequencies are in attempts: PanicEvery=5 panics attempts 5,
// 10, 15, ... of the global sequence.
type Config struct {
	// PanicEvery panics the attempt — exercising the daemon's containment
	// (a panic must cost one retry, never a worker).
	PanicEvery int
	// FailEvery returns a transient error — exercising retry/backoff.
	FailEvery int
	// DelayEvery sleeps Delay before solving — exercising deadline budgets
	// and the degradation ladder.
	DelayEvery int
	Delay      time.Duration
	// CancelEvery cancels the attempt's context after CancelAfter —
	// exercising the anytime salvage paths under spurious interruption.
	CancelEvery int
	CancelAfter time.Duration
	// PoisonNodes marks every instance with exactly this node count as
	// unsolvable: all rungs return ErrPoisoned for it, so the job exhausts
	// its ladder and terminates failed. Deterministic by construction —
	// counter schedules can starve the failure path entirely (the ladder is
	// designed to absorb transient faults), but a poisoned instance cannot
	// be absorbed.
	PoisonNodes int
	// StallNodes marks every instance with exactly this node count as a
	// stall: all rungs block until the attempt's context ends and return
	// its error. A stalled job can only leave via cancellation or its
	// deadline budget, making the cancellation path deterministically
	// testable.
	StallNodes int
}

// ErrInjected is the transient failure returned by FailEvery attempts.
var ErrInjected = errors.New("chaos: injected transient failure")

// ErrPoisoned is returned for every attempt on a poisoned instance.
var ErrPoisoned = errors.New("chaos: poisoned instance")

// Harness wraps htp.PipelineCtx with fault injection and counts what it did.
type Harness struct {
	cfg Config

	attempts  atomic.Int64
	panics    atomic.Int64
	failures  atomic.Int64
	delays    atomic.Int64
	cancels   atomic.Int64
	poisons   atomic.Int64
	stalls    atomic.Int64
	completed atomic.Int64 // attempts that reached the solver
}

// New builds a harness that injects the faults cfg selects.
func New(cfg Config) *Harness {
	return &Harness{cfg: cfg}
}

// Solve is the fault-injecting solver seam to hand to server.Config.Solver:
// every ladder rung's attempt passes through it.
func (c *Harness) Solve(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error) {
	ctx, done, err := c.inject(ctx, h)
	if err != nil {
		return nil, 0, err
	}
	defer done()
	return htp.PipelineCtx(ctx, h, spec, p)
}

// inject applies the configured faults for one attempt. It returns the
// (possibly cancellation-wrapped) context and a cleanup the caller must
// defer; a non-nil error or a panic replaces the attempt entirely.
func (c *Harness) inject(ctx context.Context, h *hypergraph.Hypergraph) (context.Context, func(), error) {
	n := c.attempts.Add(1)
	fires := func(every int) bool { return every > 0 && n%int64(every) == 0 }

	if c.cfg.PoisonNodes > 0 && h.NumNodes() == c.cfg.PoisonNodes {
		c.poisons.Add(1)
		return ctx, nil, fmt.Errorf("%w (%d nodes)", ErrPoisoned, h.NumNodes())
	}
	if c.cfg.StallNodes > 0 && h.NumNodes() == c.cfg.StallNodes {
		c.stalls.Add(1)
		<-ctx.Done()
		return ctx, nil, ctx.Err()
	}

	if fires(c.cfg.DelayEvery) && c.cfg.Delay > 0 {
		c.delays.Add(1)
		t := time.NewTimer(c.cfg.Delay)
		select {
		case <-ctx.Done():
		case <-t.C:
		}
		t.Stop()
	}
	if fires(c.cfg.PanicEvery) {
		c.panics.Add(1)
		panic(fmt.Sprintf("chaos: injected panic (attempt %d)", n))
	}
	if fires(c.cfg.FailEvery) {
		c.failures.Add(1)
		return ctx, nil, fmt.Errorf("%w (attempt %d)", ErrInjected, n)
	}
	done := func() {}
	if fires(c.cfg.CancelEvery) {
		c.cancels.Add(1)
		cctx, cancel := context.WithCancel(ctx)
		timer := time.AfterFunc(c.cfg.CancelAfter, cancel)
		ctx = cctx
		done = func() {
			timer.Stop()
			cancel()
		}
	}
	c.completed.Add(1)
	return ctx, done, nil
}

// Stats is a snapshot of what the harness injected.
type Stats struct {
	Attempts  int64
	Panics    int64
	Failures  int64
	Delays    int64
	Cancels   int64
	Poisons   int64
	Stalls    int64
	Completed int64
}

// Stats returns the injection counts so far.
func (c *Harness) Stats() Stats {
	return Stats{
		Attempts:  c.attempts.Load(),
		Panics:    c.panics.Load(),
		Failures:  c.failures.Load(),
		Delays:    c.delays.Load(),
		Cancels:   c.cancels.Load(),
		Poisons:   c.poisons.Load(),
		Stalls:    c.stalls.Load(),
		Completed: c.completed.Load(),
	}
}

package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/anytime"
	"repro/internal/hierarchy"
	"repro/internal/obs"
)

// Start launches the worker pool. Idempotent-hostile on purpose: call once.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker()
		}()
	}
}

// worker is the pool loop: it pulls jobs in admission order until the queue
// closes or shutdown begins. Panic containment lives one call down in
// runJob, per the PR-1 policy — a panicking job must never take a worker
// (and with it a pool slot) out of service.
func (s *Server) worker() {
	for {
		select {
		case <-s.stopping:
			return
		default:
		}
		select {
		case <-s.stopping:
			return
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.runJob(j)
		}
	}
}

// runJob drives one job from queued to a terminal state (or back to queued
// on shutdown). The first statement installs the recovery defer: a panic
// escaping the solver ladder's own containment — or thrown by the state
// machinery itself — fails the job instead of killing the worker.
func (s *Server) runJob(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			s.log.Error("job runner panicked", "job", j.ID, "panic", fmt.Sprint(r))
			s.finishJob(j, solveOutcome{err: fmt.Errorf("job runner panicked: %v", r)}, false)
		}
	}()
	s.noteDequeued()

	// Cancelled while queued: the cancel handler already journaled the
	// terminal state; just close out the stream.
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		j.hub.Close()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancelFn = cancel
	j.mu.Unlock()
	defer cancel()
	mInFlight.Add(1)
	defer mInFlight.Add(-1)

	// Solver telemetry pipeline: the SSE hub sits behind a DROPPING funnel
	// so a stalled consumer can never backpressure the solver — drops are
	// counted into htpd.events_dropped instead (the blocking Funnel's
	// silent-stall footgun does not belong in a service). The daemon trace
	// sink, when configured, sees the same stream tagged with the job ID.
	// closeDrop drains the funnel exactly once; it runs explicitly before
	// the normal finishJob — so the terminal stop is ordered after every
	// solver event — and is deferred for the panic path, where it still
	// precedes the recovery defer's finishJob (LIFO defer order).
	drop := obs.NewFunnelDropping(j.hub, 0)
	drained := false
	closeDrop := func() {
		if drained {
			return
		}
		drained = true
		j.runSink = nil
		drop.Close()
		if n := drop.Dropped(); n > 0 {
			cEventsDropped.Add(n)
			s.log.Warn("slow event consumers dropped telemetry", "job", j.ID, "dropped", n)
		}
	}
	defer closeDrop()
	j.runSink = obs.Multi(drop, j.trace)

	s.journalState(j, StateRunning, "", "", 0, "")

	out := s.solveJob(ctx, j)
	closeDrop()

	// Shutdown interruption: the job goes back to queued (journaled), so a
	// restarted daemon re-runs it. Not a terminal transition. A job that
	// nevertheless finished certified keeps its result instead.
	if s.isStopping() && out.res == nil && !j.cancelRequested() {
		j.mu.Lock()
		j.state = StateQueued
		j.started = time.Time{}
		j.cancelFn = nil
		j.mu.Unlock()
		s.journalState(j, StateQueued, "", "", 0, "interrupted by shutdown")
		return
	}

	s.finishJob(j, out, j.cancelRequested())
}

// finishJob applies the single terminal transition for j and emits the
// job-level stop event. Exactly one of done/failed/cancelled results:
//
//   - a client cancellation wins the state (cancelled), but a certified
//     best-so-far result produced before the cancel is still attached;
//   - otherwise a certified result means done, an error means failed;
//   - a result whose dump cannot be written is dropped, with the write
//     error as the job's error.
func (s *Server) finishJob(j *Job, out solveOutcome, clientCancelled bool) {
	var dump *hierarchy.PartitionDump
	if out.res != nil {
		dump = hierarchy.DumpPartition(out.res.Partition, out.res.Cost)
		dump.Netlist = j.Spec.Label
		dump.Algorithm = out.stage
		dump.Seed = j.Spec.Seed
		dump.Stop = string(out.res.Stop)
	}
	// The dump is on disk before the state below tells clients the job is
	// done. The only second call, from the runner's panic recovery, carries
	// no result, so it cannot overwrite the first call's dump. Served as
	// done, a job whose dump failed would have no result after a restart.
	if err := s.persistResult(j, dump); err != nil {
		s.log.Error("persisting result", "job", j.ID, "err", err)
		dump = nil
		out.res, out.stage, out.salvaged = nil, "", false
		out.err = fmt.Errorf("result dump not written: %w", err)
	}

	state := StateDone
	switch {
	case clientCancelled:
		state = StateCancelled
	case out.res == nil:
		state = StateFailed
	}

	j.mu.Lock()
	if j.state.Terminal() {
		// Double terminal transition: a state-machine bug. Refuse, count,
		// and keep the first terminal state.
		j.terminally++
		j.mu.Unlock()
		cInvariantViolations.Add(1)
		s.log.Error("refused second terminal transition", "job", j.ID, "state", string(state))
		return
	}
	j.terminally++
	j.state = state
	j.stage = out.stage
	j.attempts = out.attempts
	j.retried = out.retries
	j.degraded = out.degraded
	j.salvaged = out.salvaged
	j.finished = time.Now()
	j.cancelFn = nil
	if out.res != nil {
		j.stop = out.res.Stop
		j.cost = out.res.Cost
		j.result = dump
	}
	if out.err != nil && out.res == nil {
		j.errMsg = out.err.Error()
	}
	stopReason := string(j.stop)
	cost := j.cost
	elapsed := j.finished.Sub(j.submitted)
	j.mu.Unlock()

	switch state {
	case StateDone:
		cJobsDone.Add(1)
		if out.salvaged {
			cSalvageServes.Add(1)
		}
	case StateFailed:
		cJobsFailed.Add(1)
	case StateCancelled:
		cJobsCancelled.Add(1)
	}
	// Latency histogram, labelled by the rung that served the result so
	// /metrics exposes per-rung quantiles; jobs without one (failed or
	// cancelled before any rung finished) fall under their terminal state.
	rung := out.stage
	if rung == "" {
		rung = string(state)
	}
	mJobDuration.With(rung).Observe(elapsed.Seconds())
	errMsg := ""
	if out.err != nil && out.res == nil {
		errMsg = out.err.Error()
	}
	s.journalState(j, state, out.stage, stopReason, cost, errMsg)

	// The job-level terminal stop: exactly one per job stream, after the
	// rung-level stops were suppressed. Reason follows the anytime
	// vocabulary, with "error" for failures (the obs schema's convention).
	reason := stopReason
	switch {
	case state == StateCancelled:
		reason = string(anytime.StopCancelled)
	case state == StateFailed:
		reason = "error"
	}
	obs.Emit(obs.Multi(j.hub, j.trace), obs.Event{
		Kind:      obs.KindStop,
		Span:      j.rootSpan,
		Reason:    reason,
		Cost:      cost,
		ElapsedMS: obs.Millis(elapsed),
		Detail:    errMsg,
	})
	j.hub.Close()
}

// persistResult writes the certified dump atomically into ResultDir.
func (s *Server) persistResult(j *Job, dump *hierarchy.PartitionDump) error {
	if dump == nil || s.cfg.ResultDir == "" {
		return nil
	}
	return dump.WriteFile(s.resultPath(j.ID))
}

// journalState appends a state record, logging (not failing) on error.
func (s *Server) journalState(j *Job, state JobState, stage, stop string, cost float64, errMsg string) {
	err := s.journal.append(journalRecord{
		Op: "state", ID: j.ID, State: state,
		Stage: stage, Stop: stop, Cost: cost, Error: errMsg,
	})
	if err != nil {
		s.log.Error("journal append", "job", j.ID, "err", err)
	}
}

// jobBudget resolves a job's deadline budget against the server bounds.
func (s *Server) jobBudget(j *Job) time.Duration {
	b := time.Duration(j.Spec.BudgetMS) * time.Millisecond
	if b <= 0 {
		b = s.cfg.DefaultBudget
	}
	if s.cfg.MaxBudget > 0 && b > s.cfg.MaxBudget {
		b = s.cfg.MaxBudget
	}
	return b
}

// cancelRequested reports whether a client asked to cancel this job.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelAsk
}

// Shutdown stops the daemon gracefully: admission closes (submits get 503),
// idle workers exit, running jobs are cancelled and either finish with a
// certified best-so-far result or return to queued for the next start, and
// the journal closes once the pool drains. Jobs still queued simply stay
// queued in the journal. Returns ctx.Err() if the pool does not drain in
// time.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	close(s.stopping)
	s.mu.Unlock()

	// Cancel running solves; the anytime contract turns this into fast
	// best-so-far returns rather than lost work.
	for _, j := range s.snapshotJobs() {
		j.mu.Lock()
		if j.cancelFn != nil {
			j.cancelFn()
		}
		j.mu.Unlock()
	}

	done := make(chan struct{})
	go func() {
		defer func() { _ = recover() }() // wg.Wait does not panic; policy defer
		defer close(done)
		s.wg.Wait()
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.baseCancel()
	if err := s.journal.Close(); err != nil {
		return err
	}
	return nil
}

// isStopping reports whether Shutdown has begun.
func (s *Server) isStopping() bool {
	select {
	case <-s.stopping:
		return true
	default:
		return false
	}
}

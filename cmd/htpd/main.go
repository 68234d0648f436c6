// Command htpd serves hierarchical tree partitioning as a hardened HTTP
// daemon: jobs are submitted as JSON documents carrying an inline netlist,
// solved by the anytime multilevel/FLOW/GFM stack under a per-job deadline budget with
// graceful degradation, independently re-certified before anything is
// served, and journaled for crash recovery.
//
// Usage:
//
//	htpd -addr :8080 -workers 4 -queue 64 -journal jobs.jsonl -results out/
//
// API:
//
//	POST /jobs               submit  {"netlist": "...", "height": 4, ...}
//	GET  /jobs               list all jobs
//	GET  /jobs/{id}          status (state, stage, stop reason, counters)
//	GET  /jobs/{id}/result   the certified partition dump
//	POST /jobs/{id}/cancel   cancel; a running job keeps its best-so-far
//	GET  /jobs/{id}/events   SSE stream of solver telemetry
//	GET  /healthz            liveness + queue depth
//	GET  /metrics            Prometheus text exposition (counters, gauges, histograms)
//	GET  /debug/vars         Go runtime memstats (expvar)
//
// With -trace, every job's full solver telemetry is appended to a JSONL
// file, tagged with the job ID and span identity — feed it to htptrace for
// per-phase time breakdowns and flamegraph output.
//
// Overloaded submits get 429 with a Retry-After hint; instances over the
// node budget get 413. On SIGINT/SIGTERM the daemon stops admitting,
// cancels running jobs (they finish with certified best-so-far results or
// return to the journal as queued), and exits once the pool drains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 2, "solver worker pool size")
		queue    = flag.Int("queue", 16, "max queued jobs before submits get 429")
		maxNodes = flag.Int("max-nodes", 1<<20, "per-job node-count budget (413 above it)")
		mlNodes  = flag.Int("ml-nodes", 1<<15, "instance size at which jobs are served by the multilevel-first ladder")
		flowRef  = flag.Bool("flow-refine", false, "upgrade the multilevel-first ladder's lead rung to the flow-refined V-cycle")
		budget   = flag.Duration("budget", 30*time.Second, "default per-job deadline budget")
		maxBud   = flag.Duration("max-budget", 5*time.Minute, "ceiling on client-requested budgets")
		attempts = flag.Int("attempts", 3, "max solver attempts per degradation rung")
		backoff  = flag.Duration("backoff", 25*time.Millisecond, "base retry backoff (doubles per attempt)")
		journal  = flag.String("journal", "", "append-only JSONL job journal (enables restart recovery)")
		trace    = flag.String("trace", "", "append solver telemetry for all jobs to this JSONL file (htptrace input)")
		results  = flag.String("results", "", "directory for atomically persisted result dumps")
		logLevel = flag.String("log-level", "info", "slog level: debug, info, warn, error")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown drain window")
	)
	flag.Parse()
	if err := run(*addr, server.Config{
		Workers:         *workers,
		MaxQueue:        *queue,
		MaxNodes:        *maxNodes,
		MultilevelNodes: *mlNodes,
		FlowRefine:      *flowRef,
		DefaultBudget:   *budget,
		MaxBudget:       *maxBud,
		MaxAttempts:     *attempts,
		BaseBackoff:     *backoff,
		JournalPath:     *journal,
		ResultDir:       *results,
		Logger:          newLogger(*logLevel),
	}, *trace, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "htpd: %v\n", err)
		os.Exit(1)
	}
}

func newLogger(level string) *slog.Logger {
	var l slog.Level
	if err := l.UnmarshalText([]byte(level)); err != nil {
		l = slog.LevelInfo
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: l}))
}

func run(addr string, cfg server.Config, tracePath string, drain time.Duration) error {
	if cfg.ResultDir != "" {
		if err := os.MkdirAll(cfg.ResultDir, 0o755); err != nil {
			return fmt.Errorf("creating result dir: %w", err)
		}
	}
	// The trace file gets the complete stream: the sink locks itself, so
	// concurrent jobs write to it straight from their solvers. Flushed and
	// closed only after the pool drains, when no emitter remains.
	flushTrace := func() error { return nil }
	if tracePath != "" {
		f, err := os.OpenFile(tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening trace file: %w", err)
		}
		sink := obs.NewJSONLSink(f)
		cfg.Trace = sink
		flushTrace = func() error {
			err := sink.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}
	s, err := server.New(cfg)
	if err != nil {
		return errors.Join(err, flushTrace())
	}
	s.Start()

	// Catch signals before the listener can answer a health check: a
	// supervisor that sees the daemon healthy may send SIGTERM at once, and
	// that must drain, not kill.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				errc <- fmt.Errorf("http server panicked: %v", r)
			}
		}()
		errc <- httpSrv.ListenAndServe()
	}()
	cfg.Logger.Info("htpd listening", "addr", addr,
		"workers", cfg.Workers, "queue", cfg.MaxQueue, "journal", cfg.JournalPath)

	select {
	case err := <-errc:
		// Listener died on its own; still drain the pool before exiting.
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		serr := s.Shutdown(ctx)
		return errors.Join(err, serr, flushTrace())
	case <-sigCtx.Done():
	}

	cfg.Logger.Info("htpd shutting down", "drain", drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	herr := httpSrv.Shutdown(ctx)
	serr := s.Shutdown(ctx)
	if err := errors.Join(herr, serr, flushTrace()); err != nil {
		return err
	}
	cfg.Logger.Info("htpd stopped")
	return nil
}

// Package server implements htpd, the hardened partitioning-as-a-service
// daemon. It wraps the anytime solver stack (htp.PipelineCtx) behind an
// HTTP/JSON API with:
//
//   - admission control: a bounded queue and worker pool, per-job node-count
//     budgets, and 429 + Retry-After under overload;
//   - deadline-budgeted degradation: each job's wall-clock budget is divided
//     across a ladder of pipelines (FLOW -> GFM -> salvage, a one-iteration
//     FLOW; instances at or above MultilevelNodes get a leading multilevel
//     V-cycle rung), every rung's result re-certified by internal/verify
//     before it is served;
//   - retry with jittered exponential backoff for transient failures and
//     fail-fast for permanent ones;
//   - crash safety: an append-only JSONL journal plus atomic result writes,
//     with non-terminal jobs re-queued on restart.
//
// The package is deliberately deterministic given submitted seeds: backoff
// jitter and attempt seeds derive from the job seed, so re-running a journal
// reproduces the same computations.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/anytime"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
)

// Daemon counters in the process metrics registry, served on /metrics.
// One registry serves the whole process, so tests with several Server
// instances assert deltas. The "htpd_" prefix keeps clear of the solver's
// own "htp_" counters.
var (
	cSubmitted           = metrics.Default.Counter("htpd_jobs_submitted", "Jobs admitted to the queue.")
	cRejections          = metrics.Default.Counter("htpd_rejections_overload", "Submits rejected with 429 because the queue was full.")
	cOversized           = metrics.Default.Counter("htpd_rejections_oversized", "Submits rejected with 413 for exceeding the node budget.")
	cRetries             = metrics.Default.Counter("htpd_retries", "Solver attempts retried after a transient failure.")
	cDegradations        = metrics.Default.Counter("htpd_degradations", "Ladder rungs a job fell through to the next one.")
	cSalvageServes       = metrics.Default.Counter("htpd_salvage_serves", "Done jobs served by a salvaged result.")
	cCertFailures        = metrics.Default.Counter("htpd_cert_failures", "Solver results the independent certifier rejected.")
	cJobsDone            = metrics.Default.Counter("htpd_jobs_done", "Jobs that finished done.")
	cJobsFailed          = metrics.Default.Counter("htpd_jobs_failed", "Jobs that finished failed.")
	cJobsCancelled       = metrics.Default.Counter("htpd_jobs_cancelled", "Jobs that finished cancelled.")
	cRecovered           = metrics.Default.Counter("htpd_jobs_recovered", "Unfinished jobs re-queued from the journal at startup.")
	cInvariantViolations = metrics.Default.Counter("htpd_invariant_violations", "Refused second terminal transitions of a job.")
	cEventsDropped       = metrics.Default.Counter("htpd_events_dropped", "Telemetry events dropped for SSE subscribers that fell behind.")
)

// mJobDuration is the end-to-end job latency histogram served on /metrics,
// labelled by the ladder rung that served the result ("multilevel", "flow",
// "gfm", "salvage" — or the terminal state for jobs without one). Buckets
// are the shared log-scaled layout, so quantile estimates carry at most
// ~15% bucketing error (the loadtest asserts them against measured
// latencies within 20%).
var mJobDuration = metrics.Default.HistogramVec("htpd_job_duration_seconds",
	"End-to-end job latency (submit to terminal state) by serving ladder rung.",
	"rung", metrics.DurationBuckets())

// Queue depth and in-flight jobs rise and fall, so they are gauges, not
// counters.
var (
	mQueueDepth = metrics.Default.Gauge("htpd_queue_depth", "Jobs admitted and waiting for a worker.")
	mInFlight   = metrics.Default.Gauge("htpd_in_flight", "Jobs a worker is running.")
)

// maxSubmitBytes bounds a submit request body. The inline netlist dominates;
// 64 MiB comfortably fits every benchmark-scale instance while keeping a
// single request from exhausting memory.
const maxSubmitBytes = 64 << 20

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	// Workers is the solver pool size (default 2).
	Workers int
	// MaxQueue bounds jobs admitted but not yet running; submits beyond it
	// get 429 + Retry-After (default 16).
	MaxQueue int
	// MaxNodes is the per-job node-count budget, the daemon's memory guard:
	// instances above it are rejected 413 at admission (default 1<<20).
	MaxNodes int
	// MultilevelNodes is the instance size at which the degradation ladder
	// gains a leading multilevel V-cycle rung (multilevel -> FLOW -> GFM ->
	// salvage); smaller jobs keep the flat ladder. Default 1<<15.
	MultilevelNodes int
	// FlowRefine upgrades the big-instance ladder's leading rung from the
	// plain multilevel V-cycle to "mlf": the V-cycle plus the flow-based
	// pairwise refinement stage on the finest level, every accepted move
	// batch re-certified in-line by internal/verify. Off by default — the
	// refinement stage trades extra wall clock inside the rung's budget
	// share for a (usually small) cost improvement. Jobs below
	// MultilevelNodes are unaffected.
	FlowRefine bool
	// DefaultBudget and MaxBudget bound a job's wall-clock deadline budget
	// (defaults 30s and 5m).
	DefaultBudget time.Duration
	MaxBudget     time.Duration
	// MaxAttempts caps solver attempts per ladder rung (default 3).
	MaxAttempts int
	// BaseBackoff is the first retry delay; attempts double it (default 25ms).
	BaseBackoff time.Duration
	// JournalPath, when set, enables the append-only job journal and restart
	// recovery.
	JournalPath string
	// ResultDir, when set, persists every certified result dump atomically.
	ResultDir string
	// Solver runs every ladder rung's pipeline; nil means htp.PipelineCtx.
	// It is the seam the chaos harness and the tests wrap. Like PipelineCtx
	// it follows the anytime contract: on deadline or cancellation it
	// returns the best result found so far, erroring only when nothing
	// valid exists.
	Solver func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error)
	// Logger receives operational logs; nil discards them.
	Logger *slog.Logger
	// Trace, when set, receives every job's full solver telemetry tagged
	// with the job ID (obs.Event.Job) — typically an obs.JSONLSink, for
	// offline analysis with cmd/htptrace. Unlike the SSE hub the trace
	// sink sees events verbatim, straight from the solver, and must
	// tolerate concurrent calls: distinct jobs emit from distinct worker
	// goroutines, so events of different jobs interleave but carry the Job
	// tag. JSONLSink locks itself for exactly that.
	Trace obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 20
	}
	if c.MultilevelNodes <= 0 {
		c.MultilevelNodes = 1 << 15
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 30 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 5 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 25 * time.Millisecond
	}
	if c.Solver == nil {
		c.Solver = htp.PipelineCtx
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the htpd daemon core: admission, the worker pool, the job table,
// and the HTTP API. Create with New, launch with Start, serve Handler, stop
// with Shutdown.
type Server struct {
	cfg     Config
	log     *slog.Logger
	journal *journal

	baseCtx    context.Context
	baseCancel context.CancelFunc
	stopping   chan struct{}
	wg         sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // admission order, for GET /jobs
	queued  int      // jobs admitted but not yet picked up by a worker
	nextID  int
	stopped bool

	queue chan *Job
}

// New builds a Server from cfg, replaying the journal (when configured) and
// re-queueing every job whose last recorded state is non-terminal.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var (
		jl      *journal
		records []journalRecord
		err     error
	)
	if cfg.JournalPath != "" {
		jl, records, err = openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		journal:    jl,
		baseCtx:    ctx,
		baseCancel: cancel,
		stopping:   make(chan struct{}),
		jobs:       map[string]*Job{},
	}
	// recoverJobs registers every journaled job (terminal ones read-only);
	// the non-terminal remainder goes back on the queue. The queue must hold
	// all of it up front, else New would block; live admission still
	// respects MaxQueue.
	recovered := s.recoverJobs(records)
	s.queue = make(chan *Job, cfg.MaxQueue+len(recovered))
	for _, j := range recovered {
		s.queued++
		mQueueDepth.Add(1)
		cRecovered.Add(1)
		s.queue <- j
	}
	return s, nil
}

// recoverJobs folds the journal replay into the restart state: for each ID,
// the submitted spec plus the last recorded transition. Non-terminal jobs
// are re-validated and returned for re-queueing; terminal jobs are
// resurrected as read-only entries — status keeps serving, and done jobs
// reload their certified dump from ResultDir — so a restart is invisible to
// clients polling finished work. A journaled spec that no longer validates
// is skipped with a log line rather than wedging startup.
func (s *Server) recoverJobs(records []journalRecord) []*Job {
	type entry struct {
		spec      *JobSpec
		state     JobState
		stage     string
		stop      string
		cost      float64
		errMsg    string
		submitted time.Time
		finished  time.Time
	}
	byID := map[string]*entry{}
	var ids []string
	for _, rec := range records {
		e := byID[rec.ID]
		if e == nil {
			e = &entry{}
			byID[rec.ID] = e
			ids = append(ids, rec.ID)
		}
		switch rec.Op {
		case "submit":
			e.spec = rec.Spec
			e.state = StateQueued
			e.submitted = rec.Time
		case "state":
			e.state = rec.State
			e.stage, e.stop, e.cost, e.errMsg = rec.Stage, rec.Stop, rec.Cost, rec.Error
			if rec.State.Terminal() {
				e.finished = rec.Time
			}
		}
		var n int
		if c, err := fmt.Sscanf(rec.ID, "j-%d", &n); c == 1 && err == nil && n >= s.nextID {
			s.nextID = n
		}
	}
	var requeue []*Job
	for _, id := range ids {
		e := byID[id]
		if e.spec == nil {
			continue
		}
		if e.state.Terminal() {
			s.resurrectTerminal(id, e.spec, e.state, e.stage, e.stop, e.cost, e.errMsg, e.submitted, e.finished)
			continue
		}
		j, err := s.buildJob(id, *e.spec)
		if err != nil {
			s.log.Error("recovered job no longer valid; dropping", "job", id, "err", err)
			continue
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		requeue = append(requeue, j)
	}
	return requeue
}

// resurrectTerminal registers a finished job from its journal history as a
// read-only entry: no netlist re-parse or kept netlist text, a pre-closed
// event hub (SSE streams end immediately), and — for done jobs — the
// certified dump reloaded from ResultDir. The dump was written only after
// passing the certification gate, and atomically, so a well-formed file is
// as trustworthy as the journal itself; a missing or corrupt one downgrades
// the job to unverified status with the result endpoint reporting why.
func (s *Server) resurrectTerminal(id string, spec *JobSpec, state JobState, stage, stop string, cost float64, errMsg string, submitted, finished time.Time) {
	hub := newEventHub()
	hub.Close()
	j := &Job{
		ID:        id,
		Spec:      spec.withDefaults(),
		hub:       hub,
		state:     state,
		stage:     stage,
		stop:      anytime.Stop(stop),
		cost:      cost,
		errMsg:    errMsg,
		salvaged:  stage == "salvage",
		submitted: submitted,
		finished:  finished,
	}
	j.terminally = 1
	j.release()
	if state == StateDone && s.cfg.ResultDir != "" {
		f, err := os.Open(s.resultPath(id))
		if err == nil {
			dump, derr := hierarchy.ReadDump(f)
			f.Close()
			err = derr
			j.result = dump
		}
		if err != nil {
			j.result = nil
			j.errMsg = fmt.Sprintf("result dump not recoverable: %v", err)
			s.log.Error("terminal job's result dump not recoverable", "job", id, "err", err)
		}
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
}

// buildJob parses and validates a spec into a runnable Job. Shared by
// admission and journal recovery so both paths enforce identical limits.
func (s *Server) buildJob(id string, spec JobSpec) (*Job, error) {
	spec = spec.withDefaults()
	if strings.TrimSpace(spec.Netlist) == "" {
		return nil, fmt.Errorf("empty netlist")
	}
	if spec.Height < 1 || spec.Height > hierarchy.MaxDumpHeight {
		return nil, fmt.Errorf("height %d out of range [1, %d]", spec.Height, hierarchy.MaxDumpHeight)
	}
	if spec.Iters < 0 {
		return nil, fmt.Errorf("iters %d is negative", spec.Iters)
	}
	h, err := hypergraph.ReadFrom(strings.NewReader(spec.Netlist))
	if err != nil {
		return nil, fmt.Errorf("parsing netlist: %w", err)
	}
	if h.NumNodes() > s.cfg.MaxNodes {
		return nil, &oversizedError{nodes: h.NumNodes(), budget: s.cfg.MaxNodes}
	}
	pspec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), spec.Height,
		hierarchy.GeometricWeights(spec.Height, spec.WBase), spec.Slack)
	if err != nil {
		return nil, fmt.Errorf("building hierarchy spec: %w", err)
	}
	spans := obs.NewSpanCtx()
	hub := newEventHub()
	return &Job{
		ID:        id,
		Spec:      spec,
		h:         h,
		pspec:     pspec,
		hub:       hub,
		sink:      obs.Multi(hub, obs.WithJob(s.cfg.Trace, id)),
		spans:     spans,
		rootSpan:  spans.NewSpan(), // always 1: the job's root is deterministic
		state:     StateQueued,
		submitted: time.Now(),
	}, nil
}

// oversizedError marks an instance over the node budget: HTTP 413, and a
// permanent failure (the instance will never shrink).
type oversizedError struct{ nodes, budget int }

func (e *oversizedError) Error() string {
	return fmt.Sprintf("instance has %d nodes, over the %d-node budget", e.nodes, e.budget)
}

// noteDequeued is called by a worker when it picks up a job.
func (s *Server) noteDequeued() {
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
	mQueueDepth.Add(-1)
}

// snapshotJobs returns all jobs in admission order.
func (s *Server) snapshotJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) resultPath(id string) string {
	return filepath.Join(s.cfg.ResultDir, id+".json")
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The Go runtime's memstats (TotalAlloc is the benchmark's allocation
	// reading); every counter lives in the metrics registry.
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// handleMetrics serves the process metrics registry in the Prometheus
// text exposition format: the solver's htp_* counters and htpd's own
// counters, gauges and job-latency histogram.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.Default.WritePrometheus(w)
}

// httpError is the uniform JSON error document.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// handleSubmit admits a job or rejects it: 400 for malformed specs, 413 for
// instances over the node budget, 429 + Retry-After when the queue is full,
// 503 once shutdown has begun. Admission is atomic with journaling: a job is
// enqueued only after its submit record is durable.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	var spec JobSpec
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}

	s.mu.Lock()
	if s.stopped || s.isStopping() {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if s.queued >= s.cfg.MaxQueue {
		s.mu.Unlock()
		cRejections.Add(1)
		w.Header().Set("Retry-After", s.retryAfter())
		httpError(w, http.StatusTooManyRequests, "queue full (%d jobs)", s.cfg.MaxQueue)
		return
	}
	s.nextID++
	id := fmt.Sprintf("j-%06d", s.nextID)
	s.mu.Unlock()

	j, err := s.buildJob(id, spec)
	if err != nil {
		var ov *oversizedError
		if errors.As(err, &ov) {
			cOversized.Add(1)
			httpError(w, http.StatusRequestEntityTooLarge, "%v", err)
			return
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	if jerr := s.journal.append(journalRecord{Op: "submit", ID: id, Spec: &j.Spec, State: StateQueued}); jerr != nil {
		s.log.Error("journal append", "job", id, "err", jerr)
		httpError(w, http.StatusInternalServerError, "journaling job: %v", jerr)
		return
	}

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if s.queued >= s.cfg.MaxQueue {
		// Raced with other submits past the early check; reject rather than
		// block a handler goroutine on the channel.
		s.mu.Unlock()
		cRejections.Add(1)
		w.Header().Set("Retry-After", s.retryAfter())
		httpError(w, http.StatusTooManyRequests, "queue full (%d jobs)", s.cfg.MaxQueue)
		return
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queued++
	s.mu.Unlock()
	mQueueDepth.Add(1)
	cSubmitted.Add(1)

	select {
	case s.queue <- j:
	default:
		// Capacity is MaxQueue plus recovery headroom and queued is gated
		// above, so this cannot happen; guard anyway rather than block.
		s.log.Error("queue channel full past admission gate", "job", id)
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": string(StateQueued)})
}

// retryAfter estimates (in whole seconds, minimum 1) when queue space should
// free up: the queue drains at roughly Workers jobs per DefaultBudget in the
// worst case.
func (s *Server) retryAfter() string {
	per := s.cfg.DefaultBudget / time.Duration(s.cfg.Workers)
	sec := int(per / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return fmt.Sprintf("%d", sec)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.snapshotJobs()
	views := make([]StatusView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleResult serves the certified partition dump: 404 for unknown jobs,
// 409 while the job is still live, 404 with the failure error once a job
// terminates without a result. Everything served here passed internal/verify.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status()
	dump := j.snapshotResult()
	if dump == nil {
		if !st.State.Terminal() {
			httpError(w, http.StatusConflict, "job %s still %s", j.ID, st.State)
			return
		}
		httpError(w, http.StatusNotFound, "job %s %s without a result: %s", j.ID, st.State, st.Error)
		return
	}
	writeJSON(w, http.StatusOK, dump)
}

// handleCancel requests cancellation. A queued job becomes terminal
// cancelled immediately (the worker later skips it); a running job is
// interrupted and keeps any certified best-so-far result. Cancelling a
// terminal job is a no-op success.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	j.cancelAsk = true
	switch {
	case j.state.Terminal():
		// Already finished; nothing to do.
	case j.state == StateQueued:
		// Journal, then publish. Holding j.mu across both keeps the worker
		// from starting the job in between.
		s.journalState(j, StateCancelled, "", "", 0, "cancelled while queued")
		j.terminally++
		j.state = StateCancelled
		j.finished = time.Now()
		j.release()
		j.mu.Unlock()
		cJobsCancelled.Add(1)
		writeJSON(w, http.StatusOK, j.status())
		return
	default: // running
		if j.cancelFn != nil {
			j.cancelFn()
		}
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams the job's telemetry as server-sent events: first the
// backlog, then live events until the job's stream closes or the client
// disconnects. Event kind maps to the SSE event field, the obs.Event JSON to
// the data field.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := j.hub.Subscribe()
	defer cancel()
	for _, e := range replay {
		if err := writeSSE(w, e); err != nil {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-live:
			if !ok {
				return
			}
			if err := writeSSE(w, e); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func writeSSE(w io.Writer, e obs.Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind, data)
	return err
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.isStopping() {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	s.mu.Lock()
	depth := s.queued
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queue_depth": depth,
		"max_queue":   s.cfg.MaxQueue,
		"workers":     s.cfg.Workers,
	})
}

package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/anytime"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// JobState is the lifecycle state of a partitioning job. The machine is
//
//	queued -> running -> {done | failed | cancelled}
//
// with two extra transitions for crash/shutdown safety: a queued job may be
// cancelled directly, and a running job interrupted by daemon shutdown
// returns to queued (journaled, so a restart re-runs it). done, failed and
// cancelled are terminal; a job reaches exactly one of them exactly once —
// setState refuses terminal-to-anything transitions and counts attempts to
// make one as invariant violations.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether s is a terminal state.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the submit-request document: the netlist travels inline in the
// extended hMETIS text format, the hierarchy parameters mirror htpart's
// flags, and the budget is the job's wall-clock deadline. The spec is also
// what the journal persists, so a recovered job re-runs from exactly what
// was submitted.
type JobSpec struct {
	// Netlist is the instance in the extended hMETIS format.
	Netlist string `json:"netlist"`
	// Height, WBase, Slack parameterize the binary-tree spec (htpart's
	// -height/-wbase/-slack). Defaults: 4, 2, 1.1.
	Height int     `json:"height,omitempty"`
	WBase  float64 `json:"wbase,omitempty"`
	Slack  float64 `json:"slack,omitempty"`
	// Seed makes the job's computation reproducible. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// Iters is FLOW's iteration count N on the first ladder rung.
	// Default 2 (a service trades iterations for latency; the deadline
	// budget, not N, bounds the run). Negative values are rejected.
	Iters int `json:"iters,omitempty"`
	// BudgetMS is the job's deadline budget in milliseconds; the
	// degradation ladder divides it across its rungs. 0 means the server
	// default; values above the server maximum are clamped.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// Label is a free-form client tag echoed in status and list output.
	Label string `json:"label,omitempty"`
}

// withDefaults fills the zero-valued tunables.
func (sp JobSpec) withDefaults() JobSpec {
	if sp.Height == 0 {
		sp.Height = 4
	}
	if sp.WBase == 0 {
		sp.WBase = 2
	}
	if sp.Slack == 0 {
		sp.Slack = 1.1
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Iters == 0 {
		sp.Iters = 2
	}
	return sp
}

// Job is one partitioning job owned by the server. All mutable fields are
// guarded by mu. The solve-only state (h, pspec, spans and Spec.Netlist) is
// set at admission, read only by the worker that runs the job, and cleared
// under mu by release at the terminal transition.
type Job struct {
	ID   string
	Spec JobSpec

	// Solve-only state; see release.
	h     *hypergraph.Hypergraph
	pspec hierarchy.Spec
	// spans mints this job's span IDs; rootSpan (always 1) is the job-level
	// root every rung span nests under. Minted at admission so recovered
	// jobs re-mint deterministically.
	spans *obs.SpanCtx

	// Immutable after admission.
	hub      *eventHub
	rootSpan obs.SpanID
	// sink receives every event of the job: the hub, plus the server trace
	// sink tagged with this job's ID when the daemon traces. release keeps
	// it, because finishJob emits the job's stop after the terminal
	// transition. nil for jobs resurrected from the journal, which emit
	// nothing.
	sink obs.Observer

	mu         sync.Mutex
	state      JobState
	stage      string // ladder rung that served the result ("multilevel", "flow", "gfm", "salvage")
	stop       anytime.Stop
	cost       float64
	attempts   int
	degraded   int // rungs fallen through before the serving one
	retried    int
	errMsg     string
	salvaged   bool
	submitted  time.Time
	started    time.Time
	finished   time.Time
	cancelFn   context.CancelFunc // cancels the running solve; nil unless running
	cancelAsk  bool               // a client asked for cancellation
	result     *hierarchy.PartitionDump
	terminally int // terminal transitions attempted; must end at exactly 1
}

// StatusView is the status document served by GET /jobs/{id} and the list
// entries of GET /jobs.
type StatusView struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Label string   `json:"label,omitempty"`
	// Stage is the degradation-ladder rung that produced the served result.
	Stage string `json:"stage,omitempty"`
	// Stop is the anytime stop reason of the serving solver run.
	Stop string `json:"stop,omitempty"`
	// Cost is the certified cost of the served result.
	Cost float64 `json:"cost,omitempty"`
	// Attempts counts solver attempts across all rungs; Degradations the
	// rungs that failed over; Retries the backoff retries taken.
	Attempts     int `json:"attempts,omitempty"`
	Degradations int `json:"degradations,omitempty"`
	Retries      int `json:"retries,omitempty"`
	// Salvaged marks a best-so-far result: one served by the final
	// "salvage" rung (FLOW with one iteration), or one whose run the
	// deadline or a cancel stopped.
	Salvaged bool   `json:"salvaged,omitempty"`
	Error    string `json:"error,omitempty"`
	// Verified is true on every served result: nothing reaches the result
	// endpoint without re-certification by internal/verify.
	Verified    bool       `json:"verified"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// status snapshots the job under its lock.
func (j *Job) status() StatusView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := StatusView{
		ID:           j.ID,
		State:        j.state,
		Label:        j.Spec.Label,
		Stage:        j.stage,
		Stop:         string(j.stop),
		Cost:         j.cost,
		Attempts:     j.attempts,
		Degradations: j.degraded,
		Retries:      j.retried,
		Salvaged:     j.salvaged,
		Error:        j.errMsg,
		Verified:     j.result != nil,
		SubmittedAt:  j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// release drops the state only a solve reads, so that a finished job keeps
// just what it serves: status, result dump and event replay. The inline
// netlist text goes too; the journal's submit record is its durable copy.
// Called with mu held (or before the job is shared) at every terminal
// transition.
func (j *Job) release() {
	j.h = nil
	j.pspec = hierarchy.Spec{}
	j.spans = nil
	j.Spec.Netlist = ""
}

// snapshotResult returns the certified result dump, or nil.
func (j *Job) snapshotResult() *hierarchy.PartitionDump {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Package obs is the telemetry layer of the solver stack: typed trace
// events emitted at phase boundaries (metric sweep rounds, constructions,
// refinement passes, best-so-far updates, terminal stops), pluggable sinks
// that consume them, and process counters in the metrics registry for
// long-running use.
//
// The design contract is zero cost when disabled: every emission site
// nil-checks its Observer before building an event, so a run with no
// observer configured pays a single pointer comparison per round and
// allocates nothing. Events are observe-only — they never feed back into
// the algorithms, draw from their random sources, or change iteration
// order — so attaching an observer cannot change any computed result (the
// golden-hash tests in internal/inject pin this).
//
// Concurrency: one run is sequenced; a sink shared across runs locks
// itself. Within a run a sink receives one call at a time: the metric
// engine emits from its coordinator goroutine only, and FLOW runs its
// iterations concurrently but routes their events through a Sequencer,
// which hands them to the sink in the order a one-at-a-time run would
// emit them. A sink that several runs share, such as htpd's daemon-wide
// trace fed by concurrent jobs, is called from many goroutines, so
// JSONLSink and Collector carry their own mutex. SlogSink needs none (a
// slog.Logger is safe for concurrent use); ProgressObserver serves one
// run.
package obs

import (
	"time"

	"repro/internal/obs/metrics"
)

// Kind names an event type. The set of kinds, and the JSON field layout of
// Event, form the trace schema pinned by the schema round-trip test.
type Kind string

const (
	// KindMetricRound: one sweep of Algorithm 2 over the active set
	// finished. Fields: Iter, Round (1-based, monotone within an
	// iteration), Active (set size after the sweep), Violations (violated
	// trees this round), Injections and TreeNets (cumulative),
	// MaxCongestion, ElapsedMS (since the metric computation started).
	KindMetricRound Kind = "metric-round"
	// KindMetricDone: a whole spreading-metric computation ended (also on
	// interruption). Fields: Iter, Round (total rounds), Injections,
	// TreeNets, Converged, MaxCongestion, ElapsedMS.
	KindMetricDone Kind = "metric-done"
	// KindBuildDone: one top-down construction produced a valid partition.
	// Fields: Iter, Cost, ElapsedMS (the construction alone).
	KindBuildDone Kind = "build-done"
	// KindBest: the run's best-so-far partition improved. Fields: Iter
	// (the iteration that produced it), Cost.
	KindBest Kind = "best"
	// KindIterDone: one FLOW iteration (metric + constructions) finished.
	// Fields: Iter, Cost (the iteration's best; 0 if none), ElapsedMS.
	KindIterDone Kind = "iter-done"
	// KindRefinePass: one hierarchical FM refinement pass finished.
	// Fields: Round (pass number, 1-based), Cost (after the pass),
	// ElapsedMS (since refinement started).
	KindRefinePass Kind = "refine-pass"
	// KindSpan: a named phase finished. Fields: Phase, ElapsedMS, and Cost
	// where the phase has a natural cost (refinement).
	KindSpan Kind = "span"
	// KindSalvage: an interrupted iteration salvaged a construction from
	// its partial metric (the anytime path). Fields: Iter, Cost (0 if the
	// salvage build failed), Salvaged=true, Detail on failure.
	KindSalvage Kind = "salvage"
	// KindLevel: one multilevel V-cycle level finished. Fields: Phase
	// ("coarsen" while building the level stack, "uncoarsen" while
	// projecting back down), Round (1-based level index within the phase),
	// Active (node count of the level's hypergraph), Cost (current
	// partition cost; 0 during coarsening, where none exists yet),
	// ElapsedMS (the level alone).
	KindLevel Kind = "level"
	// KindStop: the solver run ended; exactly one per run, always last.
	// Fields: Reason (a stop reason string, or "error"), Cost (final
	// best), ElapsedMS (whole run), Detail (the error, if any).
	KindStop Kind = "stop"
)

// Kinds lists every event kind a solver run can emit.
var Kinds = []Kind{
	KindMetricRound, KindMetricDone, KindBuildDone, KindBest,
	KindIterDone, KindRefinePass, KindSpan, KindSalvage, KindLevel, KindStop,
}

// Event is one telemetry record. A single flat struct (rather than one
// type per kind) lets events cross channels and JSON without boxing or
// reflection surprises; unused fields stay zero and are omitted from JSON.
// Iter and Round are 1-based precisely so that zero means "not set".
type Event struct {
	Kind Kind      `json:"ev"`
	Time time.Time `json:"t"`
	// Span identifies the node of the run's span tree this event belongs
	// to, and Parent that node's parent; see span.go. Both 0 when span
	// identity is not threaded. Within one run IDs are minted parent-first,
	// so Parent < Span on every stamped event.
	Span   SpanID `json:"span,omitempty"`
	Parent SpanID `json:"parent,omitempty"`
	// Job tags the htpd job that emitted the event in daemon-wide traces;
	// empty for standalone solver runs.
	Job string `json:"job,omitempty"`
	// Iter is the 1-based FLOW iteration the event belongs to; 0 for
	// events outside an iteration (RFM/GFM phases, terminal stop).
	Iter int `json:"iter,omitempty"`
	// Round is the 1-based metric sweep round or refinement pass.
	Round int `json:"round,omitempty"`
	// Active is the active-set size after a metric round.
	Active int `json:"active,omitempty"`
	// Violations counts the violated trees found in this round.
	Violations int `json:"violations,omitempty"`
	// Injections is the cumulative injection count of the computation.
	Injections int `json:"injections,omitempty"`
	// TreeNets is the cumulative count of nets that received flow.
	TreeNets int `json:"tree_nets,omitempty"`
	// MaxCongestion is the largest f(e)/c(e) over positive-capacity nets.
	MaxCongestion float64 `json:"max_congestion,omitempty"`
	// Cost is a partition cost (constructed, best-so-far, or final).
	Cost float64 `json:"cost,omitempty"`
	// Phase names a span: "refine", "gfm-bisect", "gfm-merge",
	// "treemap-assign", "treemap-improve".
	Phase string `json:"phase,omitempty"`
	// Reason is the stop reason on KindStop (anytime.Stop or "error").
	Reason string `json:"reason,omitempty"`
	// Converged reports whether a metric computation converged.
	Converged bool `json:"converged,omitempty"`
	// Salvaged marks results recovered by the anytime salvage path.
	Salvaged bool `json:"salvaged,omitempty"`
	// ElapsedMS is the duration the event summarizes, in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Detail carries free-form context (error text, phase notes).
	Detail string `json:"detail,omitempty"`
}

// Observer consumes trace events. Implementations must not mutate solver
// state or retain the event past the call unless they copy it (the struct
// is plain data, so plain assignment copies). A nil Observer everywhere
// means telemetry is off.
type Observer interface {
	Event(e Event)
}

// Emit forwards e to o if an observer is attached, stamping the wall time
// if the emitter did not. Safe — and free — when o is nil; emission sites
// on hot paths should still nil-check before building the event so the
// struct is never even populated.
func Emit(o Observer, e Event) {
	if o == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	o.Event(e)
}

// Millis converts a duration to the milliseconds used by Event.ElapsedMS.
func Millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// WithIter returns an observer that stamps iter on every event that does
// not already carry an iteration, forwarding to next. It returns nil when
// next is nil so the nil-check fast path survives wrapping.
func WithIter(next Observer, iter int) Observer {
	if next == nil {
		return nil
	}
	return iterTagger{next: next, iter: iter}
}

type iterTagger struct {
	next Observer
	iter int
}

func (t iterTagger) Event(e Event) {
	if e.Iter == 0 {
		e.Iter = t.iter
	}
	t.next.Event(e)
}

// SuppressStop turns terminal stop events into span events named phase,
// forwarding everything else to next unchanged. A construct-then-refine
// pipeline (htp.Pipeline) wraps its constructor with it and emits its own
// stop after the last refine step, so a composed run still traces exactly
// one terminal stop, last, while the inner run's span still closes under
// a name, with its cost, duration and error detail. Returns nil for a nil
// next so the disabled fast path survives wrapping.
func SuppressStop(next Observer, phase string) Observer {
	if next == nil {
		return nil
	}
	return stopFilter{next: next, phase: phase}
}

type stopFilter struct {
	next  Observer
	phase string
}

func (f stopFilter) Event(e Event) {
	if e.Kind == KindStop {
		e.Kind, e.Phase, e.Reason = KindSpan, f.phase, ""
	}
	f.next.Event(e)
}

// Multi fans one event stream out to several observers in argument order.
// Nil entries are dropped; Multi returns nil when nothing remains and the
// sole survivor unwrapped, so the nil fast path and single-sink calls pay
// no indirection.
func Multi(sinks ...Observer) Observer {
	var live []Observer
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) Event(e Event) {
	for _, s := range m {
		s.Event(e)
	}
}

// Process-wide counters in the metrics registry, rendered on htpd's
// /metrics and by the batch tools' -metrics-dump. They tick whether or not
// an Observer is attached; all updates are per-round or per-run, never
// per-node, so the cost is a few atomic adds per sweep.
var (
	// MetricRounds counts Algorithm 2 sweeps over the active set.
	MetricRounds = metrics.Default.Counter("htp_metric_rounds", "Algorithm 2 sweeps over the active set.")
	// MetricInjections counts violated trees flooded with flow.
	MetricInjections = metrics.Default.Counter("htp_metric_injections", "Violated trees flooded with flow.")
	// TreeGrowths counts shortest-path-tree growths.
	TreeGrowths = metrics.Default.Counter("htp_metric_growths", "Shortest-path-tree growths.")
	// Salvages counts constructions recovered from partial metrics by the
	// anytime salvage path.
	Salvages = metrics.Default.Counter("htp_solver_salvages", "Constructions recovered from partial metrics by the anytime salvage path.")
)

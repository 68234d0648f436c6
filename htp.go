// Package repro is a reproduction of "A Network Flow Approach for
// Hierarchical Tree Partitioning" (Ming-Ter Kuo and Chung-Kuan Cheng,
// DAC 1997): partitioning circuit netlists into tree hierarchies — boards,
// chips, blocks — minimizing the level-weighted I/O pin cost
//
//	cost(P) = Σ_e Σ_l w_l · span(e, l) · c(e).
//
// The package is a facade over the implementation in internal/: it
// re-exports the netlist model, the HTP problem spec and partition types,
// the paper's FLOW algorithm (spreading metrics computed by stochastic flow
// injection + metric-guided top-down construction), the GFM/RFM baselines,
// FM-based refinement, the exact LP lower bound of Lemma 2, and the
// benchmark circuit generators.
//
// Quickstart:
//
//	h := repro.GenerateCircuit(repro.ISCAS85Circuits[0], 1)
//	spec, _ := repro.BinaryTreeSpec(h.TotalSize(), 4, repro.GeometricWeights(4, 2), 1.1)
//	res, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{})
//	// res.Partition holds the tree and leaf assignment; res.Cost the pin cost.
package repro

import (
	"context"
	"io"
	"log/slog"

	"repro/internal/anytime"
	"repro/internal/circuits"
	"repro/internal/flowrefine"
	"repro/internal/fm"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/ratiocut"
	"repro/internal/treemap"
	"repro/internal/verify"
)

// ---- Anytime contract (internal/anytime) ----
//
// Every solver entry point takes a context.Context first and carries a Ctx
// suffix. When the context is cancelled or its deadline passes, iterative
// solvers return the best valid partition found so far — Result.Stop
// records why the run ended — and error (wrapping ErrNoPartition) only when
// nothing valid exists yet. Callers without a deadline pass
// context.Background().

// StopReason records why a solver run ended.
type StopReason = anytime.Stop

// Stop reasons reported in Result.Stop and friends.
const (
	// StopConverged: the run completed its full schedule.
	StopConverged = anytime.StopConverged
	// StopMaxRounds: an iteration cap ended the run before convergence.
	StopMaxRounds = anytime.StopMaxRounds
	// StopDeadline: the context deadline passed; the result is best-so-far.
	StopDeadline = anytime.StopDeadline
	// StopCancelled: the context was cancelled; the result is best-so-far.
	StopCancelled = anytime.StopCancelled
)

// Sentinel errors classifying every failure mode; match with errors.Is.
var (
	// ErrInvalidSpec: the problem spec or input netlist is malformed.
	ErrInvalidSpec = anytime.ErrInvalidSpec
	// ErrOversizedNode: a single node exceeds the leaf capacity C_0.
	ErrOversizedNode = anytime.ErrOversizedNode
	// ErrInfeasible: no partition can satisfy the constraints.
	ErrInfeasible = anytime.ErrInfeasible
	// ErrNoPartition: the run ended before any valid partition existed.
	ErrNoPartition = anytime.ErrNoPartition
)

// ---- Telemetry (internal/obs) ----
//
// Every solver option struct (FlowOptions, InjectOptions, RFMOptions,
// GFMOptions, RefineOptions, TreeMapOptions, Pipeline) carries an Observer
// field; ProgressObserver turns a ProgressFunc into one, for a live
// display next to (MultiObserver) a trace. Telemetry is observe-only
// and zero-cost when disabled: with a nil Observer the solvers pay one nil
// check per round and allocate nothing, and attaching one cannot change
// any computed result. Runs also tick process counters in the metrics
// registry — htp_metric_rounds, htp_metric_injections, htp_metric_growths,
// htp_solver_salvages — for long-running services.

// Observer consumes solver trace events. An observer that serves one run
// needs no locking: solvers deliver events one call at a time, and FLOW
// delivers its concurrent iterations' events in iteration order. One that
// concurrent runs share must lock, as JSONLTrace and RunCollector do.
type Observer = obs.Observer

// TraceEvent is one telemetry record; TraceKind names its type
// ("metric-round", "build-done", "stop", ...). The JSONL schema is the
// JSON encoding of TraceEvent, one object per line.
type (
	TraceEvent = obs.Event
	TraceKind  = obs.Kind
)

// ProgressFunc receives coarse Progress snapshots (phase, round, best
// cost) at round-level frequency — the lightweight alternative to a full
// Observer for live display.
type (
	ProgressFunc = obs.ProgressFunc
	Progress     = obs.Progress
)

// ProgressObserver folds an event stream into Progress snapshots for fn,
// one call at a time; nil for a nil fn.
func ProgressObserver(fn ProgressFunc) Observer { return obs.ProgressObserver(fn) }

// JSONLTrace writes events as JSON Lines — the `htpart -trace` format.
// Call Flush when the run is done.
type JSONLTrace = obs.JSONLSink

// NewJSONLTrace returns a trace sink writing JSON Lines to w.
func NewJSONLTrace(w io.Writer) *JSONLTrace { return obs.NewJSONLSink(w) }

// NewSlogObserver returns an observer logging events through l
// (slog.Default() when nil): round-level events at Debug, completions and
// the terminal stop at Info.
func NewSlogObserver(l *slog.Logger) Observer { return obs.NewSlogSink(l) }

// MultiObserver fans events out to several observers; nil entries drop.
func MultiObserver(sinks ...Observer) Observer { return obs.Multi(sinks...) }

// RunCollector folds an event stream into a RunReport (final cost, stop
// reason, per-phase wall time, round/injection totals) — the per-run JSON
// report the CLIs emit.
type (
	RunCollector = obs.Collector
	RunReport    = obs.RunReport
)

// NewRunCollector returns an empty run collector.
func NewRunCollector() *RunCollector { return obs.NewCollector() }

// ---- Netlist model (internal/hypergraph) ----

// Hypergraph is a circuit netlist: nodes (cells) with sizes and nets with
// capacities.
type Hypergraph = hypergraph.Hypergraph

// NetlistBuilder accumulates nodes and nets and produces a validated
// Hypergraph.
type NetlistBuilder = hypergraph.Builder

// NodeID identifies a netlist node; NetID a net.
type (
	NodeID = hypergraph.NodeID
	NetID  = hypergraph.NetID
)

// NewNetlistBuilder returns an empty netlist builder.
func NewNetlistBuilder() *NetlistBuilder { return hypergraph.NewBuilder() }

// ReadNetlist parses a netlist in the extended hMETIS format.
func ReadNetlist(path string) (*Hypergraph, error) { return hypergraph.ReadFile(path) }

// NetlistStats summarizes a netlist (Table 1 columns and more).
type NetlistStats = hypergraph.Stats

// ComputeNetlistStats gathers summary statistics of a netlist.
func ComputeNetlistStats(h *Hypergraph) NetlistStats { return hypergraph.ComputeStats(h) }

// ---- HTP problem and partitions (internal/hierarchy) ----

// Spec holds the per-level HTP parameters: size bounds C_l, branch bounds
// K_l, and cost weights w_l.
type Spec = hierarchy.Spec

// Partition is a hierarchical tree partition P = (T, {V_q}).
type Partition = hierarchy.Partition

// Tree is the layered partition hierarchy.
type Tree = hierarchy.Tree

// BinaryTreeSpec builds the paper's experimental setup: a full binary tree
// of the given height with capacities sized for balanced splits with slack.
func BinaryTreeSpec(totalSize int64, height int, weights []float64, slack float64) (Spec, error) {
	return hierarchy.BinaryTreeSpec(totalSize, height, weights, slack)
}

// GeometricWeights returns level weights w_l = base^l.
func GeometricWeights(height int, base float64) []float64 {
	return hierarchy.GeometricWeights(height, base)
}

// ---- Algorithms (internal/htp, internal/fm) ----

// Result reports a partitioning run: the partition, its cost, and
// diagnostics.
type Result = htp.Result

// FlowOptions tunes the paper's Algorithm 1.
type FlowOptions = htp.FlowOptions

// BuildOptions tunes the top-down construction (Algorithm 3) inside FlowCtx.
type BuildOptions = htp.BuildOptions

// RFMOptions and GFMOptions tune the DAC'96 baselines.
type (
	RFMOptions = htp.RFMOptions
	GFMOptions = htp.GFMOptions
)

// RefineOptions tunes the FM-based hierarchical refinement.
type RefineOptions = fm.RefineOptions

// FlowCtx runs the network-flow constructive algorithm (Algorithm 1): N
// iterations of spreading-metric computation plus metric-guided top-down
// construction, returning the best partition. The iterations run
// concurrently on min(GOMAXPROCS, N) workers; the result is the same at
// any GOMAXPROCS. On cancellation or deadline it returns the best valid
// partition found so far with Result.Stop set, erroring (wrapping
// ErrNoPartition) only when no iteration produced one.
func FlowCtx(ctx context.Context, h *Hypergraph, spec Spec, opt FlowOptions) (*Result, error) {
	return htp.FlowCtx(ctx, h, spec, opt)
}

// Pipeline is the construct-then-refine composition: a constructor named
// as the CLIs name it ("flow", "rfm" or "gfm"; a "+" suffix adds the
// hierarchical FM refinement of the paper's Table 3), then, when
// FlowRefine is set, flow-based pairwise refinement. With Multilevel set
// it runs inside the multilevel V-cycle.
type Pipeline = htp.Pipeline

// Multilevel selects the multilevel V-cycle — deterministic heavy-edge
// coarsening, the pipeline's constructor and FM step on the coarsest
// level, boundary-localized FM refinement on the way back down, and the
// flow-refine step on the finest level. The scalable route for large
// netlists; see README "Scaling to large netlists".
type Multilevel = htp.Multilevel

// PipelineCtx runs a Pipeline and returns the result together with the
// constructed (pre-refinement) cost — for the V-cycle, its coarsest
// level's. The whole run traces as one span with exactly one terminal stop
// carrying the final cost; cancellation during refinement (in the V-cycle:
// during the coarse solve or the descent) keeps the best cost reached.
func PipelineCtx(ctx context.Context, h *Hypergraph, spec Spec, p Pipeline) (*Result, float64, error) {
	return htp.PipelineCtx(ctx, h, spec, p)
}

// BuildFromMetricCtx runs the metric-guided top-down construction alone
// (Algorithm 3): carve the hierarchy from a spreading metric already in
// hand. FlowCtx composes this with ComputeSpreadingMetricCtx; exposing the
// construction separately lets callers reuse one (possibly expensive)
// metric across several Build configurations, and lets benchmarks time
// Algorithm 3 without the dominating Algorithm 2 in front of it. A
// half-built partition is not a valid one, so cancellation returns an error
// wrapping ErrNoPartition and the context cause rather than a partial tree.
func BuildFromMetricCtx(ctx context.Context, h *Hypergraph, spec Spec, m *SpreadingMetric, opt BuildOptions) (*Partition, error) {
	return htp.BuildCtx(ctx, h, spec, m.D, opt)
}

// RFMCtx runs the top-down recursive FM baseline.
func RFMCtx(ctx context.Context, h *Hypergraph, spec Spec, opt RFMOptions) (*Result, error) {
	return htp.RFMCtx(ctx, h, spec, opt)
}

// GFMCtx runs the bottom-up grouping baseline.
func GFMCtx(ctx context.Context, h *Hypergraph, spec Spec, opt GFMOptions) (*Result, error) {
	return htp.GFMCtx(ctx, h, spec, opt)
}

// RefineCtx improves a partition in place by FM-style hierarchical moves
// and returns the final cost and total improvement; cancellation stops the
// passes early and returns the best cost reached (the partition stays valid
// throughout).
func RefineCtx(ctx context.Context, p *Partition, opt RefineOptions) (cost, improvement float64) {
	return fm.RefineHierarchicalCtx(ctx, p, opt)
}

// FlowRefineOptions tunes flow-based pairwise refinement; see
// internal/flowrefine for the corridor construction, acceptance rule, and
// determinism contract.
type FlowRefineOptions = flowrefine.Options

// FlowRefineStats reports what a flow refinement run did.
type FlowRefineStats = flowrefine.Stats

// FlowRefineCtx improves a partition in place by flow-based pairwise
// refinement: adjacent block pairs are re-cut with corridor min-cuts, and
// move batches are accepted only when they lower the hierarchical cost
// within the K_l/C_l bounds. Unlike the internal entry points, the facade
// certifies every accepted batch with internal/verify unless the caller
// supplied their own Certify hook. Cancellation stops between move batches
// and returns the best cost reached (the partition stays valid throughout).
func FlowRefineCtx(ctx context.Context, p *Partition, opt FlowRefineOptions) (cost, improvement float64, stats FlowRefineStats, err error) {
	if opt.Certify == nil {
		opt.Certify = verify.Certifier()
	}
	return flowrefine.RefineCtx(ctx, p, opt)
}

// ---- Spreading metrics and bounds (internal/metric, internal/inject) ----

// SpreadingMetric is a fractional length assignment d(e) over nets.
type SpreadingMetric = metric.Metric

// InjectOptions tunes the stochastic flow injection (Algorithm 2): α,
// Δ, the round budget, the random source and the worker count. The initial
// flow ε (1e-4) and the exponent cap (60) are fixed.
type InjectOptions = inject.Options

// InjectStats reports the flow-injection work.
type InjectStats = inject.Stats

// ComputeSpreadingMetricCtx runs Algorithm 2: an approximate spreading
// metric by stochastic flow injection. On cancellation it returns the
// partial metric computed so far (any intermediate length assignment is a
// usable construction guide) together with a non-nil error wrapping the
// context cause.
func ComputeSpreadingMetricCtx(ctx context.Context, h *Hypergraph, spec Spec, opt InjectOptions) (*SpreadingMetric, InjectStats, error) {
	return inject.ComputeMetricCtx(ctx, h, spec, opt)
}

// CheckSpreadingMetric verifies the spreading constraints; nil means
// feasible.
func CheckSpreadingMetric(m *SpreadingMetric, spec Spec) *metric.Violation {
	return metric.Check(m, spec)
}

// MetricFromPartition derives the metric induced by a partition (Lemma 1):
// d(e) = cost(e)/c(e).
func MetricFromPartition(p *Partition) *SpreadingMetric { return metric.FromPartition(p) }

// LowerBoundResult reports an exact LP lower-bound computation.
type LowerBoundResult = metric.LowerBoundResult

// ExactLowerBoundCtx computes the optimum of the spreading-metric LP by
// cutting planes (Lemma 2) — small instances only. Every relaxation optimum
// already lower-bounds the LP, so cancellation is not an error: the result
// carries the best bound proven so far with Stop set.
func ExactLowerBoundCtx(ctx context.Context, h *Hypergraph, spec Spec, maxRounds int) (*LowerBoundResult, error) {
	return metric.ExactLowerBoundCtx(ctx, h, spec, maxRounds)
}

// BruteForce finds a cost-optimal partition exhaustively — a test oracle
// for tiny instances.
func BruteForce(h *Hypergraph, spec Spec) (*Partition, float64, error) {
	return htp.BruteForce(h, spec)
}

// ---- Benchmark circuits (internal/circuits) ----

// CircuitSpec describes an ISCAS85-class benchmark circuit by its published
// size statistics.
type CircuitSpec = circuits.CircuitSpec

// ISCAS85Circuits lists the paper's five test cases.
var ISCAS85Circuits = circuits.ISCAS85

// GenerateCircuit builds a deterministic synthetic netlist with the spec's
// gate count and clustered, Rent-like connectivity (the documented stand-in
// for the unavailable MCNC files).
func GenerateCircuit(spec CircuitSpec, seed int64) *Hypergraph {
	return circuits.Generate(spec, seed)
}

// CircuitByName returns the ISCAS85-class spec with the given name.
func CircuitByName(name string) (CircuitSpec, error) { return circuits.ByName(name) }

// ScaledCircuit returns a synthetic spec with the given gate count — the
// scale rungs above the ISCAS85 suite used by the multilevel scaling
// experiments. Generate it with GenerateCircuit, or stream it to disk with
// StreamCircuit when the instance should not be materialized.
func ScaledCircuit(gates int) CircuitSpec { return circuits.Scaled(gates) }

// StreamCircuit writes the spec's netlist in the extended hMETIS format
// without building a Hypergraph; bytes are identical to
// GenerateCircuit(spec, seed).Write(w).
func StreamCircuit(spec CircuitSpec, seed int64, w io.Writer) error {
	return circuits.Stream(spec, seed, w)
}

// Figure2 reconstructs the paper's worked example graph, spec, and intended
// leaf groups.
func Figure2() (*Hypergraph, Spec, [][]NodeID) { return circuits.Figure2() }

// Figure2Partition builds the worked example's optimal partition (cost 20).
func Figure2Partition() *Partition { return circuits.Figure2Partition() }

// ---- Related formulations (internal/ratiocut, internal/treemap) ----

// RatioCutOptions tunes the stochastic flow-injection ratio-cut
// bipartitioner (the Yeh-Cheng-Lin / Lang-Rao lineage the paper builds on):
// the number of routed pairs and the random source. Its injection and
// sweep schedule (Δ = 0.1, α = 2, ε = 1e-4, exponent cap 60, 8 sweeps) is
// fixed.
type RatioCutOptions = ratiocut.Options

// RatioCutResult reports a ratio-cut bipartition.
type RatioCutResult = ratiocut.Result

// RatioCutCtx bipartitions the netlist minimizing cut/(s(A)·s(B)) — the
// objective that folds size balance into the cost instead of constraining
// it, contrasted against HTP in the paper's introduction. Cancellation
// shortens the injection and sweep schedules but the result always has two
// non-empty sides.
func RatioCutCtx(ctx context.Context, h *Hypergraph, opt RatioCutOptions) *RatioCutResult {
	return ratiocut.BipartitionCtx(ctx, h, opt)
}

// HostTree is a fixed host tree for Vijayan-style min-cost tree
// partitioning (paper ref [16]): every vertex can hold logic up to its
// capacity, and nets pay the weight of the minimal spanning subtree of
// their host vertices.
type HostTree = treemap.HostTree

// NewHostTree creates a host tree with the given vertex capacities.
func NewHostTree(capacities []int64) *HostTree { return treemap.NewHostTree(capacities) }

// TreeMapping assigns netlist nodes to host-tree vertices.
type TreeMapping = treemap.Mapping

// TreeMapOptions tunes MapOntoTreeCtx.
type TreeMapOptions = treemap.Options

// MapOntoTreeCtx maps the netlist onto a fixed host tree, minimizing global
// routing cost subject to vertex capacities. Cancellation during the
// recursive assignment errors (wrapping ErrNoPartition); cancellation
// during improvement returns the current valid mapping.
func MapOntoTreeCtx(ctx context.Context, h *Hypergraph, t *HostTree, opt TreeMapOptions) (*TreeMapping, error) {
	return treemap.MapCtx(ctx, h, t, opt)
}

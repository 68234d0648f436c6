package htp

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/anytime"
	"repro/internal/inject"
	"repro/internal/obs"
)

// ---- cancellation (tentpole: anytime contract) ----

func TestFlowCtxAlreadyCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := fourClusters(t, rng, 4, 4, 0.8)
	spec := binarySpec(t, h, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := FlowCtx(ctx, h, spec, FlowOptions{Iterations: 2})
	if res != nil {
		t.Fatalf("expected no result from a dead context, got cost %g", res.Cost)
	}
	if !errors.Is(err, anytime.ErrNoPartition) {
		t.Fatalf("error should wrap ErrNoPartition, got: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled, got: %v", err)
	}
}

// cancelOnRound records a trace and cancels once the first iteration has
// reported `after` metric rounds: the first iteration's events reach the
// observer as they happen at any GOMAXPROCS, so the cut lands mid-metric.
type cancelOnRound struct {
	eventLog
	cancel context.CancelFunc
	after  int
}

func (c *cancelOnRound) Event(e obs.Event) {
	c.eventLog.Event(e)
	if e.Kind == obs.KindMetricRound && e.Iter == 1 && e.Round == c.after {
		c.cancel()
	}
}

func TestFlowCtxCancelMidRunReturnsBestSoFar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := fourClusters(t, rng, 4, 8, 0.6)
	spec := binarySpec(t, h, 2)
	for _, procs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		rec := &cancelOnRound{cancel: cancel, after: 2}
		var res *Result
		var err error
		withProcs(procs, func() {
			res, err = FlowCtx(ctx, h, spec, FlowOptions{Iterations: 8, Observer: rec})
		})
		cancel()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: best-so-far expected, got error: %v", procs, err)
		}
		if res.Stop != anytime.StopCancelled {
			t.Fatalf("GOMAXPROCS %d: Stop = %q, want %q", procs, res.Stop, anytime.StopCancelled)
		}
		if err := res.Partition.Validate(); err != nil {
			t.Fatalf("GOMAXPROCS %d: best-so-far partition invalid: %v", procs, err)
		}
		// The interrupted first iteration salvaged one construction from its
		// partial metric, and the result is no worse than that salvage.
		salvaged := false
		for _, e := range rec.events {
			if e.Kind == obs.KindSalvage && e.Iter == 1 {
				salvaged = e.Salvaged && e.Cost > 0 && res.Cost <= e.Cost
			}
		}
		if !salvaged {
			t.Fatalf("GOMAXPROCS %d: no usable salvage from iteration 1 (cost %g) in %d events",
				procs, res.Cost, len(rec.events))
		}
	}
}

func TestFlowCtxRejectsNegativeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := fourClusters(t, rng, 4, 4, 0.8)
	spec := binarySpec(t, h, 2)
	for _, opt := range []FlowOptions{{Iterations: -1}, {PartitionsPerMetric: -2}} {
		res, err := FlowCtx(context.Background(), h, spec, opt)
		if res != nil || !errors.Is(err, anytime.ErrInvalidSpec) {
			t.Fatalf("%+v: got result %v, error %v; want an ErrInvalidSpec error", opt, res, err)
		}
	}
}

func TestFlowCtxDeadlineReturnsValidPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Large enough that 64 iterations take far longer than the deadline.
	h := fourClusters(t, rng, 8, 32, 0.4)
	spec := binarySpec(t, h, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	res, err := FlowCtx(ctx, h, spec, FlowOptions{Iterations: 64})
	if err != nil {
		t.Fatalf("best-so-far expected at deadline, got error: %v", err)
	}
	if res.Stop != anytime.StopDeadline {
		t.Fatalf("Stop = %q, want %q", res.Stop, anytime.StopDeadline)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatalf("best-so-far partition invalid: %v", err)
	}
	if res.Cost <= 0 {
		t.Fatalf("suspicious zero cost %g for a bridged instance", res.Cost)
	}
}

func TestFlowCtxUncancelledMatchesFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	h := fourClusters(t, rng, 4, 6, 0.7)
	spec := binarySpec(t, h, 2)
	opt := FlowOptions{Iterations: 3, PartitionsPerMetric: 2, Seed: 5}
	plain, err := FlowCtx(context.Background(), h, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	under, err := FlowCtx(ctx, h, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cost != under.Cost {
		t.Fatalf("a live context changed the result: %g vs %g", plain.Cost, under.Cost)
	}
	for v := range plain.Partition.LeafOf {
		if plain.Partition.LeafOf[v] != under.Partition.LeafOf[v] {
			t.Fatalf("leaf assignment diverges at node %d", v)
		}
	}
	if under.Stop != anytime.StopConverged {
		t.Fatalf("Stop = %q, want %q", under.Stop, anytime.StopConverged)
	}
}

func TestFlowCtxParallelMatchesSequentialUnderLiveContext(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := fourClusters(t, rng, 4, 6, 0.7)
	spec := binarySpec(t, h, 2)
	opt := FlowOptions{Iterations: 4, Seed: 9}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	var seq, par *Result
	var seqErr, parErr error
	withProcs(1, func() { seq, seqErr = FlowCtx(ctx, h, spec, opt) })
	withProcs(4, func() { par, parErr = FlowCtx(ctx, h, spec, opt) })
	if err := errors.Join(seqErr, parErr); err != nil {
		t.Fatal(err)
	}
	if seq.Cost != par.Cost {
		t.Fatalf("parallel diverged: %g vs %g", seq.Cost, par.Cost)
	}
	for v := range seq.Partition.LeafOf {
		if seq.Partition.LeafOf[v] != par.Partition.LeafOf[v] {
			t.Fatalf("leaf assignment diverges at node %d", v)
		}
	}
}

func TestRFMCtxAlreadyCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	h := fourClusters(t, rng, 4, 4, 0.8)
	spec := binarySpec(t, h, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RFMCtx(ctx, h, spec, RFMOptions{}); !errors.Is(err, anytime.ErrNoPartition) {
		t.Fatalf("RFM error should wrap ErrNoPartition, got: %v", err)
	}
	if _, err := GFMCtx(ctx, h, spec, GFMOptions{}); !errors.Is(err, anytime.ErrNoPartition) {
		t.Fatalf("GFM error should wrap ErrNoPartition, got: %v", err)
	}
}

// ---- panic containment (satellite: fault injection) ----

func TestFlowParallelPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := fourClusters(t, rng, 4, 6, 0.7)
	spec := binarySpec(t, h, 2)
	flowIterFault = func(iter int) {
		if iter == 2 {
			panic("injected fault in iteration 2")
		}
	}
	defer func() { flowIterFault = nil }()
	var res *Result
	var err error
	withProcs(4, func() { res, err = FlowCtx(context.Background(), h, spec, FlowOptions{Iterations: 4}) })
	if err != nil {
		t.Fatalf("sibling iterations should still win, got error: %v", err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatalf("partition invalid: %v", err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("want exactly 1 contained failure, got %d: %v", len(res.Failures), res.Failures)
	}
	msg := res.Failures[0].Error()
	if !strings.Contains(msg, "panicked") || !strings.Contains(msg, "injected fault") {
		t.Fatalf("failure should carry the panic, got: %v", msg)
	}
	if !strings.Contains(msg, "anytime_test.go") {
		t.Fatalf("failure should carry the stack, got: %v", msg)
	}
}

func TestFlowAllIterationsPanicYieldsError(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	h := fourClusters(t, rng, 4, 4, 0.8)
	spec := binarySpec(t, h, 2)
	flowIterFault = func(int) { panic("every iteration dies") }
	defer func() { flowIterFault = nil }()
	var res *Result
	var err error
	withProcs(4, func() { res, err = FlowCtx(context.Background(), h, spec, FlowOptions{Iterations: 3}) })
	if res != nil {
		t.Fatalf("no iteration survived, yet got a result with cost %g", res.Cost)
	}
	if !errors.Is(err, anytime.ErrNoPartition) {
		t.Fatalf("error should wrap ErrNoPartition, got: %v", err)
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error should mention the panics, got: %v", err)
	}
}

// ---- stats aggregation (satellite: Converged is the AND) ----

func TestFlowConvergedStatsAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	h := fourClusters(t, rng, 4, 6, 0.7)
	spec := binarySpec(t, h, 2)

	res, err := FlowCtx(context.Background(), h, spec, FlowOptions{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MetricStats.Converged {
		t.Fatalf("full run should converge, stats: %+v", res.MetricStats)
	}
	if res.Stop != anytime.StopConverged {
		t.Fatalf("Stop = %q, want %q", res.Stop, anytime.StopConverged)
	}

	// A one-round metric budget leaves every iteration unconverged; one
	// unconverged iteration must mark the aggregate (AND, not last-wins).
	res, err = FlowCtx(context.Background(), h, spec, FlowOptions{Iterations: 3, Inject: inject.Options{MaxRounds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MetricStats.Converged {
		t.Fatalf("MaxRounds=1 cannot converge, stats: %+v", res.MetricStats)
	}
	if res.Stop != anytime.StopMaxRounds {
		t.Fatalf("Stop = %q, want %q", res.Stop, anytime.StopMaxRounds)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatalf("partition from truncated metrics invalid: %v", err)
	}
}

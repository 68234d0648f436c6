package htp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/anytime"
	"repro/internal/circuits"
	"repro/internal/flowrefine"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

type mlInstance struct {
	h    *hypergraph.Hypergraph
	spec hierarchy.Spec
}

func multilevelInstance(tb testing.TB) mlInstance {
	tb.Helper()
	rng := rand.New(rand.NewSource(19))
	h := fourClusters(tb, rng, 16, 64, 0.12)
	return mlInstance{h: h, spec: binarySpec(tb, h, 4)}
}

// eventList is a test observer appending every event to a slice.
type eventList struct{ events []obs.Event }

func (l *eventList) Event(e obs.Event) { l.events = append(l.events, e) }

// TestMultilevelEndToEnd: the V-cycle on a clustered instance produces a
// valid partition whose reported cost matches an independent recomputation,
// with a contract-conforming stop reason.
func TestMultilevelEndToEnd(t *testing.T) {
	in := multilevelInstance(t)
	res, _, err := PipelineCtx(context.Background(), in.h, in.spec, Pipeline{
		Seed: 5, Multilevel: &Multilevel{CoarsenTarget: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Partition.H != in.h {
		t.Fatal("result is not over the input hypergraph")
	}
	if math.Abs(res.Cost-res.Partition.Cost()) > 1e-6*math.Max(1, res.Cost) {
		t.Fatalf("reported cost %g != recomputed %g", res.Cost, res.Partition.Cost())
	}
	switch res.Stop {
	case anytime.StopConverged, anytime.StopMaxRounds:
	default:
		t.Fatalf("uncancelled run stopped with %q", res.Stop)
	}
	if res.Iterations < 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

// TestMultilevelDeterministicAcrossWorkers pins the facade-level contract:
// a fixed seed yields bit-identical assignments and cost at any worker
// count.
func TestMultilevelDeterministicAcrossWorkers(t *testing.T) {
	in := multilevelInstance(t)
	run := func(workers int) *Result {
		res, _, err := PipelineCtx(context.Background(), in.h, in.spec, Pipeline{
			Seed: 5, Multilevel: &Multilevel{CoarsenTarget: 64, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if math.Float64bits(got.Cost) != math.Float64bits(base.Cost) {
			t.Fatalf("workers=%d: cost %v != workers=1 cost %v", workers, got.Cost, base.Cost)
		}
		for v := range base.Partition.LeafOf {
			if got.Partition.LeafOf[v] != base.Partition.LeafOf[v] {
				t.Fatalf("workers=%d: node %d leaf %d != %d",
					workers, v, got.Partition.LeafOf[v], base.Partition.LeafOf[v])
			}
		}
	}
}

// TestMultilevelFlowRefineWorkersShareNothing runs the flow-refined V-cycle
// at several worker counts. Each pair worker cuts every pair it claims
// through its own reused cut workspace, so the result must be bit for bit
// the one-worker result; the repeated two-CPU race pass over the FLOW tests
// runs it too, where a workspace shared between workers would show.
func TestMultilevelFlowRefineWorkersShareNothing(t *testing.T) {
	cs, err := circuits.ByName("c1355")
	if err != nil {
		t.Fatal(err)
	}
	h := circuits.Generate(cs, 1)
	in := mlInstance{h: h, spec: binarySpec(t, h, 4)}
	run := func(workers int) *Result {
		var trace eventList
		res, _, err := PipelineCtx(context.Background(), in.h, in.spec, Pipeline{
			Seed: 5, Multilevel: &Multilevel{CoarsenTarget: 64, Workers: workers},
			FlowRefine: &flowrefine.Options{}, Observer: &trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range trace.events {
			if e.Phase == "flow-refine" && e.Kind == obs.KindSpan && strings.HasPrefix(e.Detail, "0 pairs") {
				t.Fatalf("workers=%d: flow refinement cut no pair (%s)", workers, e.Detail)
			}
		}
		return res
	}
	base := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if math.Float64bits(got.Cost) != math.Float64bits(base.Cost) {
			t.Fatalf("workers=%d: cost %v != workers=1 cost %v", workers, got.Cost, base.Cost)
		}
		for v := range base.Partition.LeafOf {
			if got.Partition.LeafOf[v] != base.Partition.LeafOf[v] {
				t.Fatalf("workers=%d: node %d leaf %d != %d",
					workers, v, got.Partition.LeafOf[v], base.Partition.LeafOf[v])
			}
		}
	}
}

// TestMultilevelStrategies: every named coarse-level strategy slots into the
// pipeline and produces a valid partition; an unknown name is an
// ErrInvalidSpec.
func TestMultilevelStrategies(t *testing.T) {
	in := multilevelInstance(t)
	for _, strat := range []string{"flow", "flow+", "rfm", "rfm+", "gfm", "gfm+"} {
		res, _, err := PipelineCtx(context.Background(), in.h, in.spec, Pipeline{
			Algo: strat, Seed: 5, Multilevel: &Multilevel{CoarsenTarget: 150},
			Flow: FlowOptions{Iterations: 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if err := res.Partition.Validate(); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
	}
	if _, _, err := PipelineCtx(context.Background(), in.h, in.spec, Pipeline{Algo: "annealing", Multilevel: &Multilevel{}}); !errors.Is(err, anytime.ErrInvalidSpec) {
		t.Fatalf("unknown strategy error = %v, want ErrInvalidSpec", err)
	}
}

// TestMultilevelAnytime: a pre-expired context fails with ErrNoPartition;
// a deadline landing mid-run either fails the same way or returns a valid
// best-so-far partition with the deadline stop reason.
func TestMultilevelAnytime(t *testing.T) {
	in := multilevelInstance(t)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := PipelineCtx(done, in.h, in.spec, Pipeline{Multilevel: &Multilevel{}}); !errors.Is(err, anytime.ErrNoPartition) {
		t.Fatalf("pre-cancelled error = %v, want ErrNoPartition", err)
	}
	for _, budget := range []time.Duration{time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		res, _, err := PipelineCtx(ctx, in.h, in.spec, Pipeline{Seed: 5, Multilevel: &Multilevel{CoarsenTarget: 64}})
		cancel()
		if err != nil {
			if !errors.Is(err, anytime.ErrNoPartition) {
				t.Fatalf("budget %v: error %v does not wrap ErrNoPartition", budget, err)
			}
			continue
		}
		if err := res.Partition.Validate(); err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		if res.Stop != anytime.StopDeadline && res.Stop != anytime.StopConverged && res.Stop != anytime.StopMaxRounds {
			t.Fatalf("budget %v: stop %q", budget, res.Stop)
		}
	}
}

// TestMultilevelTraceContract: the composed run emits coarsen and uncoarsen
// level events and exactly one terminal stop, last.
func TestMultilevelTraceContract(t *testing.T) {
	in := multilevelInstance(t)
	sink := &eventList{}
	res, _, err := PipelineCtx(context.Background(), in.h, in.spec, Pipeline{
		Seed: 5, Multilevel: &Multilevel{CoarsenTarget: 64}, Observer: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := sink.events
	if len(events) == 0 {
		t.Fatal("no events")
	}
	stops, coarsenLevels, uncoarsenLevels := 0, 0, 0
	for i, e := range events {
		switch e.Kind {
		case obs.KindStop:
			stops++
			if i != len(events)-1 {
				t.Fatalf("stop at index %d of %d", i, len(events))
			}
			if e.Reason != string(res.Stop) {
				t.Fatalf("stop reason %q != result stop %q", e.Reason, res.Stop)
			}
		case obs.KindLevel:
			switch e.Phase {
			case "coarsen":
				coarsenLevels++
			case "uncoarsen":
				uncoarsenLevels++
			default:
				t.Fatalf("level event with phase %q", e.Phase)
			}
		}
	}
	if stops != 1 {
		t.Fatalf("%d stop events", stops)
	}
	if coarsenLevels == 0 || coarsenLevels != uncoarsenLevels {
		t.Fatalf("coarsen levels %d, uncoarsen levels %d", coarsenLevels, uncoarsenLevels)
	}
}

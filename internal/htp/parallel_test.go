package htp

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// withProcs runs f with GOMAXPROCS set to n, restoring the old value. FLOW
// sizes its iteration pool from GOMAXPROCS, so 1 selects the inline
// one-worker schedule.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// eventLog records a trace with its wall-clock fields zeroed: the stamps
// and elapsed times are the only parts a schedule may change. It takes no
// lock, so the race detector catches a sink entered concurrently.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Event(e obs.Event) {
	e.Time, e.ElapsedMS = time.Time{}, 0
	l.events = append(l.events, e)
}

// firstLines drops the stacks from contained failures, which differ between
// a goroutine and the inline schedule.
func firstLines(errs []error) []string {
	out := make([]string, len(errs))
	for i, err := range errs {
		out[i], _, _ = strings.Cut(err.Error(), "\n")
	}
	return out
}

// TestParallelFlowMatchesSequential: the concurrent schedule pre-draws the
// same per-iteration seeds and reduces in iteration order, so it returns
// bit for bit what the one-worker schedule returns — cost, LeafOf,
// MetricStats, stop reason and the order of Failures — and traces the same
// event sequence. Iteration 2 panics in every run, so runs with N > 2 carry
// a contained failure.
func TestParallelFlowMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	h := fourClusters(t, rng, 4, 5, 0.7)
	spec := binarySpec(t, h, 2)
	flowIterFault = func(iter int) {
		if iter == 2 {
			panic("injected fault in iteration 2")
		}
	}
	defer func() { flowIterFault = nil }()

	run := func(procs int, opt FlowOptions) (*Result, []obs.Event) {
		t.Helper()
		var log eventLog
		opt.Observer = &log
		var res *Result
		var err error
		withProcs(procs, func() { res, err = Flow(h, spec, opt) })
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		return res, log.events
	}
	for _, iters := range []int{1, 2, 3, 4, 7} {
		for _, perMetric := range []int{1, 2} {
			for _, seed := range []int64{1, 2, 3} {
				opt := FlowOptions{Iterations: iters, PartitionsPerMetric: perMetric, Seed: seed}
				name := fmt.Sprintf("N=%d ppm=%d seed=%d", iters, perMetric, seed)
				seq, seqEvents := run(1, opt)
				con, conEvents := run(4, opt)
				if con.Cost != seq.Cost || con.Stop != seq.Stop || con.MetricStats != seq.MetricStats {
					t.Fatalf("%s: concurrent cost %g stop %s stats %+v; one worker %g %s %+v", name,
						con.Cost, con.Stop, con.MetricStats, seq.Cost, seq.Stop, seq.MetricStats)
				}
				if !slices.Equal(con.Partition.LeafOf, seq.Partition.LeafOf) {
					t.Fatalf("%s: leaf assignments differ", name)
				}
				if got, want := firstLines(con.Failures), firstLines(seq.Failures); !slices.Equal(got, want) {
					t.Fatalf("%s: failures %q, one worker %q", name, got, want)
				}
				if wantFail := iters > 2; (len(seq.Failures) > 0) != wantFail {
					t.Fatalf("%s: %d failures, want some: %v", name, len(seq.Failures), wantFail)
				}
				if !reflect.DeepEqual(conEvents, seqEvents) {
					t.Fatalf("%s: concurrent trace (%d events) differs from the one-worker trace (%d events)",
						name, len(conEvents), len(seqEvents))
				}
			}
		}
	}
}

func TestParallelFlowPropagatesFatalErrors(t *testing.T) {
	// An oversized node makes the metric computation fail in every
	// iteration; the error must surface, not be swallowed.
	b := hypergraph.NewBuilder()
	b.AddNode("big", 5)
	b.AddNode("", 1)
	b.AddNet("", 1, 0, 1)
	h := b.MustBuild()
	spec := hierarchy.Spec{Capacity: []int64{2, 6}, Weight: []float64{1, 1}, Branch: []int{2, 2}}
	withProcs(4, func() {
		if _, err := Flow(h, spec, FlowOptions{Iterations: 3}); err == nil {
			t.Fatal("expected error for oversized node")
		}
	})
}

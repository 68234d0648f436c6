// Schema round-trip test: real solver runs write JSONL traces, and this
// file re-decodes them and pins the schema documented on Event — every
// line decodes to a known kind, metric rounds are monotone within their
// iteration, and each run traces exactly one terminal stop event, last.
// An external test package so the traces come from the actual solvers.
package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/circuits"
	"repro/internal/flowrefine"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/obs"
)

// cancelOnRound forwards every event and fires cancel once `after` metric
// rounds have been observed — a deterministic mid-metric interruption.
type cancelOnRound struct {
	next   obs.Observer
	cancel context.CancelFunc
	after  int
	seen   int
}

func (c *cancelOnRound) Event(e obs.Event) {
	c.next.Event(e)
	if e.Kind == obs.KindMetricRound {
		c.seen++
		if c.seen == c.after {
			c.cancel()
		}
	}
}

func kinds(events []obs.Event) []obs.Kind {
	out := make([]obs.Kind, len(events))
	for i, e := range events {
		out[i] = e.Kind
	}
	return out
}

func schemaInstance(t *testing.T) (*hypergraph.Hypergraph, hierarchy.Spec) {
	t.Helper()
	h := circuits.Clustered(4, 32, 0.25, 1)
	spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	return h, spec
}

// decodeTrace re-reads a JSONL trace, failing on any line that does not
// decode or whose kind is not in the published set.
func decodeTrace(t *testing.T, buf *bytes.Buffer) []obs.Event {
	t.Helper()
	known := map[obs.Kind]bool{}
	for _, k := range obs.Kinds {
		known[k] = true
	}
	var events []obs.Event
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for dec.More() {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("event %d does not decode: %v", len(events), err)
		}
		if !known[e.Kind] {
			t.Fatalf("event %d has unknown kind %q", len(events), e.Kind)
		}
		if e.Time.IsZero() {
			t.Fatalf("event %d (%s) missing timestamp", len(events), e.Kind)
		}
		events = append(events, e)
	}
	return events
}

// checkTraceInvariants enforces the cross-event contract: one terminal
// stop, last; metric rounds 1-based and monotone within each iteration; and
// span identity is well-formed — parent-first minting means every stamped
// event satisfies Parent < Span (a parent is always minted before any of
// its children, so htptrace's reverse-ID sweep is a valid post-order). A
// parent need not itself carry an event, and htptrace roots such orphans;
// a suppressed stop is not one of them, since SuppressStop forwards it as a
// named span event (the multilevel construct stage does that to the coarse
// solver's stop). A "coarse-fallback" span marks the multilevel engine
// restarting its coarse stage one level finer, which legitimately restarts
// the round clock.
func checkTraceInvariants(t *testing.T, events []obs.Event) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	for i, e := range events {
		if e.Parent == 0 {
			continue
		}
		if e.Span == 0 {
			t.Fatalf("event %d (%s) sets parent %d without a span", i, e.Kind, e.Parent)
		}
		if e.Parent >= e.Span {
			t.Fatalf("event %d (%s): parent %d not minted before child %d", i, e.Kind, e.Parent, e.Span)
		}
	}
	stops := 0
	lastRound := map[int]int{} // iteration -> last metric round seen
	for i, e := range events {
		switch e.Kind {
		case obs.KindSpan:
			if e.Phase == "coarse-fallback" {
				clear(lastRound)
			}
		case obs.KindStop:
			stops++
			if i != len(events)-1 {
				t.Fatalf("stop event at index %d, not last (%d events)", i, len(events))
			}
			if e.Reason == "" {
				t.Fatal("stop event missing reason")
			}
		case obs.KindMetricRound:
			if e.Round <= lastRound[e.Iter] {
				t.Fatalf("iteration %d: metric round %d after round %d", e.Iter, e.Round, lastRound[e.Iter])
			}
			lastRound[e.Iter] = e.Round
		}
	}
	if stops != 1 {
		t.Fatalf("trace has %d stop events, want exactly 1", stops)
	}
}

// TestTraceSchemaRoundTrip drives every solver shape through a JSONL sink
// and re-decodes the traces. Across the runs — a converged FLOW run (both
// schedules), a deadline-interrupted run with salvage, a flow-refined
// V-cycle, a refined GFM+ run and flat FLOW with flow refinement — every
// published event kind must appear at least once.
func TestTraceSchemaRoundTrip(t *testing.T) {
	h, spec := schemaInstance(t)
	seen := map[obs.Kind]bool{}
	collect := func(t *testing.T, run func(sink obs.Observer) float64) []obs.Event {
		t.Helper()
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		finalCost := run(sink)
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		events := decodeTrace(t, &buf)
		checkTraceInvariants(t, events)
		if last := events[len(events)-1]; last.Cost != finalCost {
			t.Fatalf("stop event cost %v != result cost %v", last.Cost, finalCost)
		}
		for _, e := range events {
			seen[e.Kind] = true
		}
		return events
	}

	// FLOW sizes its iteration pool from GOMAXPROCS: 1 runs the iterations
	// inline, one after another; 4 runs three of them at once.
	flowAt := func(procs int, opt htp.FlowOptions) func(sink obs.Observer) float64 {
		return func(sink obs.Observer) float64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			opt.Observer = sink
			res, err := htp.FlowCtx(context.Background(), h, spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res.Cost
		}
	}

	t.Run("flow-sequential", func(t *testing.T) {
		collect(t, flowAt(1, htp.FlowOptions{Iterations: 3, PartitionsPerMetric: 2, Seed: 3}))
	})

	t.Run("flow-parallel", func(t *testing.T) {
		collect(t, flowAt(4, htp.FlowOptions{Iterations: 3, Seed: 3, Inject: inject.Options{Workers: 2}}))
	})

	t.Run("flow-cancel-salvage", func(t *testing.T) {
		// Cancelling from inside the observer after the second metric round
		// deterministically interrupts the first metric mid-flight and
		// exercises the salvage path; the trace must still end in exactly
		// one stop with a terminal reason.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		events := collect(t, func(sink obs.Observer) float64 {
			res, err := htp.FlowCtx(ctx, h, spec,
				htp.FlowOptions{Iterations: 4, Seed: 3,
					Observer: &cancelOnRound{next: sink, cancel: cancel, after: 2}})
			if err != nil {
				t.Fatal(err)
			}
			return res.Cost
		})
		if last := events[len(events)-1]; last.Reason != "cancelled" {
			t.Fatalf("stop reason = %q, want cancelled", last.Reason)
		}
		salvaged := false
		for _, e := range events {
			if e.Kind == obs.KindSalvage {
				salvaged = true
				if !e.Salvaged {
					t.Fatal("salvage event without Salvaged flag")
				}
			}
		}
		if !salvaged {
			t.Fatalf("no salvage event in cancelled trace: %v", kinds(events))
		}
	})

	t.Run("multilevel", func(t *testing.T) {
		events := collect(t, func(sink obs.Observer) float64 {
			res, _, err := htp.PipelineCtx(context.Background(), h, spec, htp.Pipeline{Seed: 3,
				Multilevel: &htp.Multilevel{CoarsenTarget: 32}, FlowRefine: &flowrefine.Options{}, Observer: sink})
			if err != nil {
				t.Fatal(err)
			}
			return res.Cost
		})
		levels := false
		levelSpans := map[obs.SpanID]bool{}
		for _, e := range events {
			if e.Kind == obs.KindLevel {
				levels = true
				if e.Phase != "coarsen" && e.Phase != "uncoarsen" {
					t.Fatalf("level event with phase %q", e.Phase)
				}
				// Each V-cycle level owns a distinct span nested under its
				// phase, so htptrace can split phase time per level.
				if e.Span == 0 || e.Parent == 0 {
					t.Fatalf("level event (%s %d) missing span identity: span=%d parent=%d",
						e.Phase, e.Round, e.Span, e.Parent)
				}
				if levelSpans[e.Span] {
					t.Fatalf("level span %d reused across level events", e.Span)
				}
				levelSpans[e.Span] = true
			}
		}
		if !levels {
			t.Fatalf("no level events in multilevel trace: %v", kinds(events))
		}
		// Flow refinement is a V-cycle step of its own, after uncoarsening:
		// both spans hang off the run span.
		phaseParent := map[string]obs.SpanID{}
		for _, e := range events {
			if e.Kind == obs.KindSpan {
				phaseParent[e.Phase] = e.Parent
			}
		}
		if p, ok := phaseParent["flow-refine"]; !ok || p != phaseParent["uncoarsen"] {
			t.Fatalf("flow-refine span parent %d (present %v), want uncoarsen's parent %d", p, ok, phaseParent["uncoarsen"])
		}

		// Pin the wire names: span identity serializes as "span"/"parent"
		// and both are omitted when unset.
		for _, e := range events {
			if e.Span == 0 || e.Parent == 0 {
				continue
			}
			data, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(data, []byte(`"span":`)) || !bytes.Contains(data, []byte(`"parent":`)) {
				t.Fatalf("stamped event serializes without span identity: %s", data)
			}
			break
		}
		if bare, err := json.Marshal(obs.Event{Kind: obs.KindBest}); err != nil {
			t.Fatal(err)
		} else if bytes.Contains(bare, []byte("span")) || bytes.Contains(bare, []byte("parent")) {
			t.Fatalf("unstamped event serializes span fields: %s", bare)
		}
	})

	t.Run("gfm-plus", func(t *testing.T) {
		collect(t, func(sink obs.Observer) float64 {
			res, _, err := htp.PipelineCtx(context.Background(), h, spec,
				htp.Pipeline{Algo: "gfm+", Seed: 3, Observer: sink})
			if err != nil {
				t.Fatal(err)
			}
			return res.Cost
		})
	})

	t.Run("flat-flow-refine", func(t *testing.T) {
		// Flow refinement runs as the pipeline's last step, so its events
		// come before the one stop and nest under the run's span.
		events := collect(t, func(sink obs.Observer) float64 {
			res, _, err := htp.PipelineCtx(context.Background(), h, spec,
				htp.Pipeline{Algo: "flow", Seed: 3, Flow: htp.FlowOptions{Iterations: 2},
					FlowRefine: &flowrefine.Options{}, Observer: sink})
			if err != nil {
				t.Fatal(err)
			}
			return res.Cost
		})
		root := events[len(events)-1].Span
		refined := false
		for _, e := range events {
			if e.Kind == obs.KindSpan && e.Phase == "flow-refine" {
				refined = true
				if e.Parent != root {
					t.Fatalf("flow-refine span %d nests under %d, want the run span %d", e.Span, e.Parent, root)
				}
			}
		}
		if !refined {
			t.Fatalf("no flow-refine span in trace: %v", kinds(events))
		}
	})

	for _, k := range obs.Kinds {
		if !seen[k] {
			t.Errorf("event kind %q never appeared in any trace", k)
		}
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// recorder captures events in order.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) Event(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func TestEmitNilObserverIsFreeAndAllocationFree(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		Emit(nil, Event{Kind: KindMetricRound, Round: 3, Active: 17, MaxCongestion: 1.25})
	})
	if allocs != 0 {
		t.Fatalf("Emit with nil observer allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkDisabledObserver is the -benchmem smoke for the disabled hot
// path: CI asserts 0 B/op, 0 allocs/op.
func BenchmarkDisabledObserver(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit(nil, Event{Kind: KindMetricRound, Round: i, Active: 17, Injections: 2 * i})
	}
}

func TestEmitStampsTime(t *testing.T) {
	var r recorder
	Emit(&r, Event{Kind: KindBest, Cost: 12})
	if len(r.events) != 1 {
		t.Fatalf("got %d events, want 1", len(r.events))
	}
	if r.events[0].Time.IsZero() {
		t.Error("Emit did not stamp a zero Time")
	}
	fixed := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	Emit(&r, Event{Kind: KindBest, Time: fixed})
	if !r.events[1].Time.Equal(fixed) {
		t.Errorf("Emit overwrote a caller-set Time: got %v", r.events[1].Time)
	}
}

func TestWithIter(t *testing.T) {
	if WithIter(nil, 3) != nil {
		t.Error("WithIter(nil) should stay nil for the fast path")
	}
	var r recorder
	o := WithIter(&r, 3)
	o.Event(Event{Kind: KindMetricRound, Round: 1})
	o.Event(Event{Kind: KindMetricRound, Round: 2, Iter: 9})
	if r.events[0].Iter != 3 {
		t.Errorf("untagged event got iter %d, want 3", r.events[0].Iter)
	}
	if r.events[1].Iter != 9 {
		t.Errorf("pre-tagged event got iter %d, want 9 preserved", r.events[1].Iter)
	}
}

func TestSuppressStopForwardsNamedSpan(t *testing.T) {
	if SuppressStop(nil, "flow") != nil {
		t.Error("SuppressStop(nil) should stay nil")
	}
	var r recorder
	o := SuppressStop(&r, "flow")
	o.Event(Event{Kind: KindBest, Span: 2, Parent: 1, Cost: 7})
	o.Event(Event{Kind: KindStop, Span: 2, Parent: 1, Reason: "converged", Cost: 5, ElapsedMS: 9, Detail: "d"})
	want := []Event{
		{Kind: KindBest, Span: 2, Parent: 1, Cost: 7},
		{Kind: KindSpan, Span: 2, Parent: 1, Phase: "flow", Cost: 5, ElapsedMS: 9, Detail: "d"},
	}
	if len(r.events) != len(want) || r.events[0] != want[0] || r.events[1] != want[1] {
		t.Fatalf("forwarded %+v, want %+v", r.events, want)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of nothing should be nil")
	}
	var a, b recorder
	if got := Multi(nil, &a); got != Observer(&a) {
		t.Error("Multi with one live sink should unwrap it")
	}
	m := Multi(&a, nil, &b)
	m.Event(Event{Kind: KindStop})
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Errorf("fan-out got %d/%d events, want 1/1", len(a.events), len(b.events))
	}
}

// TestJSONLSinkKeepsProducerOrderThroughFlush: goroutines interleave on
// one sink, yet each goroutine's events reach the file in the order it
// emitted them, and Flush writes out everything emitted before it.
func TestJSONLSinkKeepsProducerOrderThroughFlush(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	const per = 100
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Event(Event{Kind: KindMetricRound, Iter: w + 1, Round: i + 1})
			}
		}(w)
	}
	wg.Wait()
	s.Event(Event{Kind: KindStop, Reason: "converged"})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4*per+1 {
		t.Fatalf("got %d lines after Flush, want %d", len(lines), 4*per+1)
	}
	events := make([]Event, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &events[i]); err != nil {
			t.Fatalf("line %d does not decode: %v\n%s", i+1, err, l)
		}
	}
	if last := events[len(events)-1]; last.Kind != KindStop {
		t.Errorf("last event is %q, want stop (per-goroutine order must hold)", last.Kind)
	}
	rounds := map[int]int{}
	for _, e := range events[:len(events)-1] {
		if e.Round != rounds[e.Iter]+1 {
			t.Fatalf("iter %d: round %d arrived after %d", e.Iter, e.Round, rounds[e.Iter])
		}
		rounds[e.Iter] = e.Round
	}
}

func TestProgressObserver(t *testing.T) {
	if ProgressObserver(nil) != nil {
		t.Error("ProgressObserver(nil) should stay nil")
	}
	var snaps []Progress
	o := ProgressObserver(func(p Progress) { snaps = append(snaps, p) })
	o.Event(Event{Kind: KindMetricRound, Iter: 1, Round: 2, Active: 40, Injections: 7})
	o.Event(Event{Kind: KindMetricDone, Iter: 1, Round: 5})
	o.Event(Event{Kind: KindBuildDone, Iter: 1, Cost: 100})
	o.Event(Event{Kind: KindBuildDone, Iter: 2, Cost: 120}) // worse: best keeps 100
	o.Event(Event{Kind: KindSpan, Phase: "refine"})         // not rendered
	o.Event(Event{Kind: KindStop, Reason: "converged", Cost: 90})
	if len(snaps) != 5 {
		t.Fatalf("got %d snapshots, want 5 (span filtered)", len(snaps))
	}
	first := snaps[0]
	if first.Phase != "metric" || first.Round != 2 || first.Active != 40 || first.Injections != 7 {
		t.Errorf("metric-round snapshot wrong: %+v", first)
	}
	if snaps[3].BestCost != 100 || !snaps[3].HaveBest {
		t.Errorf("best cost after worse build = %v, want 100", snaps[3].BestCost)
	}
	last := snaps[len(snaps)-1]
	if last.Phase != "done" || last.Stop != "converged" || last.BestCost != 90 {
		t.Errorf("terminal snapshot wrong: %+v", last)
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.Event(Event{Kind: KindMetricRound, Iter: 1, Round: 1})
	c.Event(Event{Kind: KindMetricDone, Iter: 1, Round: 6, Injections: 30, ElapsedMS: 10})
	c.Event(Event{Kind: KindBuildDone, Iter: 1, Cost: 100, ElapsedMS: 2})
	c.Event(Event{Kind: KindIterDone, Iter: 1, Cost: 100, ElapsedMS: 12})
	c.Event(Event{Kind: KindMetricDone, Iter: 2, Round: 4, Injections: 12, ElapsedMS: 8})
	c.Event(Event{Kind: KindSalvage, Iter: 2, Cost: 130, Salvaged: true, ElapsedMS: 1})
	c.Event(Event{Kind: KindRefinePass, Round: 1, Cost: 95})
	c.Event(Event{Kind: KindSpan, Phase: "refine", ElapsedMS: 5})
	c.Event(Event{Kind: KindStop, Reason: "deadline", Cost: 95, ElapsedMS: 40})
	rep := c.Report()
	if rep.Rounds != 10 || rep.Injections != 42 {
		t.Errorf("rounds/injections = %d/%d, want 10/42", rep.Rounds, rep.Injections)
	}
	if rep.Salvages != 1 || rep.RefinePasses != 1 || rep.Iterations != 1 {
		t.Errorf("salvages/passes/iters = %d/%d/%d, want 1/1/1",
			rep.Salvages, rep.RefinePasses, rep.Iterations)
	}
	if rep.PhaseMS["metric"] != 18 || rep.PhaseMS["build"] != 3 || rep.PhaseMS["refine"] != 5 {
		t.Errorf("phase attribution wrong: %v", rep.PhaseMS)
	}
	if rep.Stop != "deadline" || rep.FinalCost != 95 || rep.TotalMS != 40 {
		t.Errorf("terminal fields wrong: %+v", rep)
	}
	if rep.Events != 9 {
		t.Errorf("events = %d, want 9", rep.Events)
	}
}

func TestJSONLSinkEncodesAndSticksOnError(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Event(Event{Kind: KindMetricRound, Time: time.Unix(0, 0).UTC(), Round: 1, Active: 9})
	s.Event(Event{Kind: KindStop, Time: time.Unix(1, 0).UTC(), Reason: "converged", Cost: 42})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindStop || e.Reason != "converged" || e.Cost != 42 {
		t.Errorf("round-trip lost fields: %+v", e)
	}
	// Zero fields are omitted from the wire form.
	if strings.Contains(lines[0], "cost") || strings.Contains(lines[0], "reason") {
		t.Errorf("zero fields leaked into %q", lines[0])
	}

	bad := NewJSONLSink(failWriter{})
	bad.Event(Event{Kind: KindStop})
	if err := bad.Flush(); err == nil {
		t.Error("write error did not surface via Flush")
	}
	if bad.Err() == nil {
		t.Error("write error did not stick")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestSlogSinkLevelsAndFields(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	s := NewSlogSink(l)
	s.Event(Event{Kind: KindMetricRound, Round: 1}) // debug: filtered at info
	s.Event(Event{Kind: KindStop, Reason: "converged", Cost: 42, ElapsedMS: 3})
	out := buf.String()
	if strings.Contains(out, "metric-round") {
		t.Error("metric-round should log at debug, filtered by an info handler")
	}
	if !strings.Contains(out, "msg=stop") || !strings.Contains(out, "reason=converged") {
		t.Errorf("stop event missing from slog output: %q", out)
	}
}

package obs

import "testing"

func TestSpanCtxMintsMonotone(t *testing.T) {
	c := NewSpanCtx()
	var prev SpanID
	for i := 0; i < 100; i++ {
		s := c.NewSpan()
		if s <= prev {
			t.Fatalf("span %d not greater than previous %d", s, prev)
		}
		prev = s
	}
}

func TestSpanCtxReserve(t *testing.T) {
	c := NewSpanCtx()
	c.NewSpan()       // 1
	a := c.Reserve(2) // 2, 3
	b := a.Reserve(1) // 4: a block reserves from the run's counter
	if s := c.NewSpan(); s != 5 {
		t.Fatalf("counter after reserving 3 IDs minted %d, want 5", s)
	}
	got := []SpanID{b.NewSpan(), a.NewSpan(), a.NewSpan(), a.NewSpan(), b.NewSpan()}
	want := []SpanID{4, 2, 3, 6, 7} // exhausted blocks fall back to the counter
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("minted %v, want %v", got, want)
		}
	}
}

func TestSpanScopeEnter(t *testing.T) {
	// Disabled path: no minting, no observer.
	var zero SpanScope
	scope, o := zero.Enter(nil)
	if o != nil {
		t.Error("Enter(nil) should return a nil observer for the fast path")
	}
	if scope.Ctx != nil {
		t.Error("Enter(nil) must not mint a SpanCtx")
	}

	// Root entry: fresh ID space, events stamped with the new span.
	var r recorder
	scope, so := zero.Enter(&r)
	if scope.Ctx == nil || scope.Parent == 0 {
		t.Fatalf("entered scope not initialized: %+v", scope)
	}
	so.Event(Event{Kind: KindBest})
	if got := r.events[0]; got.Span != scope.Parent || got.Parent != 0 {
		t.Fatalf("root event stamped span=%d parent=%d, want span=%d parent=0",
			got.Span, got.Parent, scope.Parent)
	}

	// Child entry: nested under the root, parent minted before child.
	child, co := scope.Enter(&r)
	co.Event(Event{Kind: KindIterDone})
	got := r.events[1]
	if got.Parent != scope.Parent {
		t.Fatalf("child event parent = %d, want %d", got.Parent, scope.Parent)
	}
	if got.Span != child.Parent || got.Span <= got.Parent {
		t.Fatalf("child event span = %d (parent %d): want parent-first minting", got.Span, got.Parent)
	}
}

func TestWithSpanInnermostWins(t *testing.T) {
	if WithSpan(nil, 1, 0) != nil {
		t.Error("WithSpan(nil) should stay nil for the fast path")
	}
	// Layering: an enclosing layer wraps the sink with its span, a nested
	// layer wraps again. Emission sites call the innermost wrapper, so the
	// nested layer's stamp lands first and the enclosing tagger must leave
	// it alone.
	var r recorder
	run := WithSpan(&r, 2, 1)                              // enclosing layer (e.g. the FLOW run)
	iter := WithSpan(run, 7, 2)                            // nested layer (e.g. one iteration)
	iter.Event(Event{Kind: KindMetricRound})               // stamped by the nearest wrapper
	run.Event(Event{Kind: KindBest})                       // run-level emission
	iter.Event(Event{Kind: KindLevel, Span: 9, Parent: 7}) // pre-stamped: untouched
	if e := r.events[0]; e.Span != 7 || e.Parent != 2 {
		t.Fatalf("nested event got span=%d parent=%d, want 7/2", e.Span, e.Parent)
	}
	if e := r.events[1]; e.Span != 2 || e.Parent != 1 {
		t.Fatalf("run event got span=%d parent=%d, want 2/1", e.Span, e.Parent)
	}
	if e := r.events[2]; e.Span != 9 || e.Parent != 7 {
		t.Fatalf("pre-stamped event mutated to span=%d parent=%d", e.Span, e.Parent)
	}
}

func TestWithJob(t *testing.T) {
	if WithJob(nil, "j-1") != nil {
		t.Error("WithJob(nil) should stay nil for the fast path")
	}
	var r recorder
	o := WithJob(&r, "j-000001")
	o.Event(Event{Kind: KindBest})
	o.Event(Event{Kind: KindBest, Job: "j-other"})
	if r.events[0].Job != "j-000001" {
		t.Fatalf("job not stamped: %q", r.events[0].Job)
	}
	if r.events[1].Job != "j-other" {
		t.Fatalf("pre-tagged job overwritten: %q", r.events[1].Job)
	}
}

// BenchmarkDisabledObserverSpan pins the disabled hot path WITH the span
// plumbing compiled in: entering a scope, wrapping with span and iter
// taggers, and emitting — all against a nil observer — must stay at
// 0 B/op, 0 allocs/op (CI greps this alongside BenchmarkDisabledObserver).
// This is the emission pattern of FlowCtx's inner loop when telemetry is
// off, with span identity in the code path.
func BenchmarkDisabledObserverSpan(b *testing.B) {
	b.ReportAllocs()
	var scope SpanScope
	for i := 0; i < b.N; i++ {
		sc, sink := scope.Enter(nil)
		iterObs := WithSpan(WithIter(sink, i+1), sc.Mint(), sc.Parent)
		if iterObs != nil {
			b.Fatal("observer must stay nil on the disabled path")
		}
		Emit(iterObs, Event{Kind: KindMetricRound, Round: i, Active: 17})
	}
}

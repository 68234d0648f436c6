package inject

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/obs"
)

// stallOnFirstRound blocks the engine after its first sweep round so a
// short context deadline reliably fires mid-run.
type stallOnFirstRound struct{ d time.Duration }

func (s stallOnFirstRound) Event(e obs.Event) {
	if e.Kind == obs.KindMetricRound && e.Round == 1 {
		time.Sleep(s.d)
	}
}

func TestComputeMetricCtxAlreadyCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	h := clusteredGraph(t, rng, 4, 4)
	spec := specFor(h, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _, err := ComputeMetricCtx(ctx, h, spec, Options{})
	if m != nil {
		t.Fatal("a context dead at entry should yield no metric")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled, got: %v", err)
	}
}

func TestComputeMetricCtxDeadlineReturnsPartialMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	h := clusteredGraph(t, rng, 12, 16)
	spec := specFor(h, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	// The observer runs synchronously on the engine's goroutine, so
	// stalling on the first sweep round guarantees the deadline expires
	// mid-run on any machine (a fixed fine-grained Delta alone raced the
	// clock on fast hardware).
	m, st, err := ComputeMetricCtx(ctx, h, spec, Options{Delta: 0.001, Observer: stallOnFirstRound{20 * time.Millisecond}})
	if err == nil {
		t.Fatal("an interrupted run must report the interruption")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error should wrap context.DeadlineExceeded, got: %v", err)
	}
	if m == nil {
		t.Fatal("mid-run interruption should salvage the partial metric")
	}
	if len(m.D) != h.NumNets() {
		t.Fatalf("partial metric has %d lengths for %d nets", len(m.D), h.NumNets())
	}
	for e, d := range m.D {
		if d < 0 {
			t.Fatalf("net %d has negative length %g", e, d)
		}
	}
	if st.Converged {
		t.Fatalf("interrupted stats claim convergence: %+v", st)
	}
}

func TestComputeMetricCtxUncancelledMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	h := clusteredGraph(t, rng, 3, 4)
	spec := specFor(h, 2)
	m1, _, err := ComputeMetricCtx(context.Background(), h, spec, Options{Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	m2, st, err := ComputeMetricCtx(ctx, h, spec, Options{Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("expected convergence, stats: %+v", st)
	}
	for e := range m1.D {
		if m1.D[e] != m2.D[e] {
			t.Fatalf("a live context changed the metric at net %d: %g vs %g", e, m1.D[e], m2.D[e])
		}
	}
	if bad := metric.Check(m2, spec); bad != nil {
		t.Fatalf("metric infeasible: %v", bad)
	}
}

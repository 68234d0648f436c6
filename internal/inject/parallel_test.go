package inject

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metric"
)

// metricHash fingerprints a metric bit-for-bit.
func metricHash(m *metric.Metric) uint64 {
	fh := fnv.New64a()
	var b [8]byte
	for _, d := range m.D {
		bits := math.Float64bits(d)
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		fh.Write(b[:])
	}
	return fh.Sum64()
}

// TestWorkers1MatchesLegacySequential pins the Workers<=1 path to hashes
// captured from the pre-parallel sequential implementation: the default and
// Workers:1 engines must reproduce the historical metrics bit-for-bit.
func TestWorkers1MatchesLegacySequential(t *testing.T) {
	cases := []struct {
		name          string
		clusters, per int
		seed          int64
		want          uint64
	}{
		{"c4x4", 4, 4, 71, 0x68a86bfbc406aeb7},
		{"c6x5", 6, 5, 101, 0x307ff2b01f0784d1},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 1} {
			rng := rand.New(rand.NewSource(tc.seed))
			h := clusteredGraph(t, rng, tc.clusters, tc.per)
			spec := specFor(h, 2)
			m, st, err := ComputeMetricCtx(context.Background(), h, spec, Options{
				Rng:     rand.New(rand.NewSource(tc.seed)),
				Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !st.Converged {
				t.Fatalf("%s workers=%d: did not converge", tc.name, workers)
			}
			if got := metricHash(m); got != tc.want {
				t.Errorf("%s workers=%d: metric hash %#016x, want legacy %#016x",
					tc.name, workers, got, tc.want)
			}
		}
	}
}

// TestParallelDeterministicAcrossWorkers checks the engine's contract: for a
// fixed seed the batched engine computes one metric, identical across every
// Workers >= 2 (the batch structure is worker-count independent) and across
// repeated runs.
func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	h := clusteredGraph(t, rng, 6, 6)
	spec := specFor(h, 2)

	run := func(workers int) (*metric.Metric, Stats) {
		m, st, err := ComputeMetricCtx(context.Background(), h, spec, Options{
			Rng:     rand.New(rand.NewSource(17)),
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, st
	}

	ref, refSt := run(2)
	if !refSt.Converged {
		t.Fatalf("parallel run did not converge: %+v", refSt)
	}
	if bad := metric.Check(ref, spec); bad != nil {
		t.Fatalf("parallel metric infeasible: %v", bad)
	}
	want := metricHash(ref)
	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 2; rep++ {
			m, st := run(workers)
			if got := metricHash(m); got != want {
				t.Errorf("workers=%d rep=%d: metric hash %#016x, want %#016x",
					workers, rep, got, want)
			}
			if st.Injections != refSt.Injections || st.Rounds != refSt.Rounds {
				t.Errorf("workers=%d rep=%d: stats diverge: %+v vs %+v", workers, rep, st, refSt)
			}
		}
	}
}

// TestParallelMetricFeasibleAndEffective runs the batched engine on a
// clustered instance and checks it produces a feasible spreading metric that
// still separates bottleneck nets, like the sequential one.
func TestParallelMetricFeasibleAndEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	h := clusteredGraph(t, rng, 4, 5)
	spec := specFor(h, 2)
	m, st, err := ComputeMetricCtx(context.Background(), h, spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %+v", st)
	}
	if st.Injections == 0 {
		t.Fatal("no injections happened; the zero metric cannot be feasible here")
	}
	if bad := metric.Check(m, spec); bad != nil {
		t.Fatalf("metric infeasible: %v", bad)
	}
	if m.Value() <= 0 || math.IsNaN(m.Value()) || math.IsInf(m.Value(), 0) {
		t.Fatalf("metric value = %g", m.Value())
	}
}

// TestParallelCancellationSalvagesPartialMetric interrupts the batched
// engine mid-round and checks the anytime contract survives parallelism: a
// valid partial metric comes back together with an error wrapping the
// context cause, and the stats do not claim convergence.
func TestParallelCancellationSalvagesPartialMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	h := clusteredGraph(t, rng, 12, 16)
	spec := specFor(h, 3)
	// Fine-grained injection makes the full run take well past the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	m, st, err := ComputeMetricCtx(ctx, h, spec, Options{Delta: 0.001, Workers: 4})
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
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("net %d has invalid length %g", e, d)
		}
	}
	if st.Converged {
		t.Fatalf("interrupted stats claim convergence: %+v", st)
	}
}

// TestParallelAlreadyCancelled mirrors the sequential entry guard: a context
// dead at entry yields no metric regardless of worker count.
func TestParallelAlreadyCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	h := clusteredGraph(t, rng, 4, 4)
	spec := specFor(h, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _, err := ComputeMetricCtx(ctx, h, spec, Options{Workers: 4})
	if m != nil {
		t.Fatal("a context dead at entry should yield no metric")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled, got: %v", err)
	}
}

// TestParallelSharedRngSafe hands one *rand.Rand to many concurrent
// ComputeMetricCtx calls' options... it does not: it checks instead that the
// parallel engine never draws from Options.Rng off the calling goroutine by
// running under -race with Workers > 1 (the workers would trip the detector
// if the source were shared with them).
func TestParallelSharedRngSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	h := clusteredGraph(t, rng, 5, 5)
	spec := specFor(h, 2)
	src := rand.New(rand.NewSource(29))
	for i := 0; i < 3; i++ {
		if _, _, err := ComputeMetricCtx(context.Background(), h, spec, Options{Rng: src, Workers: 4}); err != nil {
			t.Fatal(err)
		}
	}
}

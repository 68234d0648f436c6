package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	g.Add(-1.0)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=1 gets 0.5 and 1 (bounds are inclusive upper bounds), le=10 gets
	// 5, le=100 gets 50, +Inf gets 500.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 556.5 {
		t.Fatalf("count=%d sum=%v, want 5/556.5", s.Count, s.Sum)
	}
}

// TestHistogramConcurrency pins the snapshot consistency contract under
// contention: 16 goroutines record while snapshots are taken mid-stream.
// Every snapshot must satisfy sum(buckets) >= Count (bucket increments
// happen first, Count is read first) with both bounded by the total
// emitted; the final snapshot is exact.
func TestHistogramConcurrency(t *testing.T) {
	const goroutines = 16
	const perG = 5000
	h := NewHistogram(ExponentialBuckets(1, 2, 12))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				h.Observe(float64((g*perG + i) % 4000))
			}
		}(g)
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
		}
		s := h.Snapshot()
		var bucketSum uint64
		for _, c := range s.Counts {
			bucketSum += c
		}
		if bucketSum < s.Count {
			t.Fatalf("mid-stream snapshot: bucket sum %d < count %d", bucketSum, s.Count)
		}
		if bucketSum > goroutines*perG || s.Count > goroutines*perG {
			t.Fatalf("snapshot overcounts: buckets=%d count=%d, max %d",
				bucketSum, s.Count, goroutines*perG)
		}
	}
	s := h.Snapshot()
	var bucketSum uint64
	var wantSum float64
	for _, c := range s.Counts {
		bucketSum += c
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			wantSum += float64((g*perG + i) % 4000)
		}
	}
	if bucketSum != goroutines*perG || s.Count != goroutines*perG {
		t.Fatalf("final snapshot: buckets=%d count=%d, want %d", bucketSum, s.Count, goroutines*perG)
	}
	if s.Sum != wantSum {
		t.Fatalf("final sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	// Uniform 1..1000 ms: true p50 = 0.5s, p99 = 0.99s.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{{0.5, 0.5}, {0.99, 0.99}} {
		got := s.Quantile(tc.q)
		if math.Abs(got-tc.want)/tc.want > 0.15 {
			t.Errorf("q%v = %v, want %v within bucket ratio 15%%", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(NewHistogram(nil).Snapshot().Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
}

func TestSnapshotSubMerge(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	before := h.Snapshot()
	h.Observe(1.5)
	h.Observe(3)
	delta := h.Snapshot().Sub(before)
	if delta.Count != 2 || delta.Counts[0] != 0 || delta.Counts[1] != 1 || delta.Counts[2] != 1 {
		t.Fatalf("delta = %+v", delta)
	}
	if delta.Sum != 4.5 {
		t.Fatalf("delta sum = %v, want 4.5", delta.Sum)
	}
	merged := delta.Merge(before)
	if merged.Count != 3 || merged.Counts[0] != 1 {
		t.Fatalf("merged = %+v", merged)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs accepted.")
	c.Add(7)
	g := r.Gauge("queue_depth", "Jobs waiting.")
	g.Set(3)
	hv := r.HistogramVec("job_seconds", "Job latency.", "rung", []float64{1, 10})
	hv.With("flow").Observe(0.5)
	hv.With("flow").Observe(20)
	hv.With("gfm").Observe(5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs accepted.",
		"# TYPE jobs_total counter",
		"jobs_total 7",
		"# TYPE queue_depth gauge",
		"queue_depth 3",
		"# TYPE job_seconds histogram",
		`job_seconds_bucket{rung="flow",le="1"} 1`,
		`job_seconds_bucket{rung="flow",le="10"} 1`,
		`job_seconds_bucket{rung="flow",le="+Inf"} 2`,
		`job_seconds_sum{rung="flow"} 20.5`,
		`job_seconds_count{rung="flow"} 2`,
		`job_seconds_bucket{rung="gfm",le="10"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Re-registration returns the same instrument.
	if r.Counter("jobs_total", "Jobs accepted.") != c {
		t.Error("re-registering a counter must return the original")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DurationBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) / 250)
	}
}

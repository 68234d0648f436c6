package server

import (
	"math"
	"testing"

	"repro/internal/obs/metrics"
)

// Histogram arithmetic for the loadtest: it isolates one fleet's job
// latencies on the shared registry (snapshotSub), pools the per-rung
// histograms (snapshotMerge) and compares their quantiles with the
// latencies the clients measured (snapshotQuantile).

// snapshotSub returns the delta snapshot s − prev: the observations
// recorded between the two snapshots. Bucket counts are monotone, so the
// result is itself a valid snapshot of that window.
func snapshotSub(s, prev metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	d := metrics.HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i]
		if i < len(prev.Counts) {
			d.Counts[i] -= prev.Counts[i]
		}
	}
	return d
}

// snapshotMerge returns the element-wise sum of two snapshots over the same
// bounds.
func snapshotMerge(s, o metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	if len(s.Counts) == 0 {
		return o
	}
	m := metrics.HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: append([]uint64(nil), s.Counts...),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	for i := range o.Counts {
		if i < len(m.Counts) {
			m.Counts[i] += o.Counts[i]
		}
	}
	return m
}

// snapshotQuantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the bucket holding the target rank — the same
// estimator as PromQL's histogram_quantile. Values in the +Inf bucket
// clamp to the largest finite bound. Returns NaN on an empty snapshot.
func snapshotQuantile(s metrics.HistogramSnapshot, q float64) float64 {
	total := uint64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range s.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i >= len(s.Bounds) { // +Inf bucket
				if len(s.Bounds) == 0 {
					return math.NaN()
				}
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			return lo + (hi-lo)*((rank-cum)/float64(c))
		}
		cum = next
	}
	if len(s.Bounds) == 0 {
		return math.NaN()
	}
	return s.Bounds[len(s.Bounds)-1]
}

func TestQuantile(t *testing.T) {
	h := metrics.NewHistogram(metrics.DurationBuckets())
	// Uniform 1..1000 ms: true p50 = 0.5s, p99 = 0.99s.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{{0.5, 0.5}, {0.99, 0.99}} {
		got := snapshotQuantile(s, tc.q)
		if math.Abs(got-tc.want)/tc.want > 0.15 {
			t.Errorf("q%v = %v, want %v within bucket ratio 15%%", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(snapshotQuantile(metrics.NewHistogram(nil).Snapshot(), 0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
}

func TestSnapshotSubMerge(t *testing.T) {
	h := metrics.NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	before := h.Snapshot()
	h.Observe(1.5)
	h.Observe(3)
	delta := snapshotSub(h.Snapshot(), before)
	if delta.Count != 2 || delta.Counts[0] != 0 || delta.Counts[1] != 1 || delta.Counts[2] != 1 {
		t.Fatalf("delta = %+v", delta)
	}
	if delta.Sum != 4.5 {
		t.Fatalf("delta sum = %v, want 4.5", delta.Sum)
	}
	merged := snapshotMerge(delta, before)
	if merged.Count != 3 || merged.Counts[0] != 1 {
		t.Fatalf("merged = %+v", merged)
	}
}

package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{20, 50, 10},
		{100, 90, 90},
		{1000, 99, 990},
		{1000, 90, 900},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{500, 99, false}, // 5 beyond
		{999, 99, false}, // 10 beyond would need 1000
		{1000, 99, true},
		{99, 90, false},
		{100, 90, true},
		{19, 50, false},
		{0, 50, false},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g over %d samples: err = %v, want ok=%v", c.p, c.n, err, c.ok)
		}
	}
	if _, err := percentile(seq(10), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestTailPercentilePicksHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 4950}, {1000, 990}, {500, 450}, {100, 90}} {
		if got, err := tailPercentile(seq(c.n)); err != nil || got != c.want {
			t.Errorf("tail of 1..%d = %v, %v; want %v", c.n, got, err, c.want)
		}
	}
	if _, err := tailPercentile(seq(99)); err == nil {
		t.Error("tail over 99 samples accepted")
	}
}

// The want values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func TestBoundChecksAreDirectionAware(t *testing.T) {
	lat := metricDef{Name: "latency_p50_s", Better: "lower", Bound: 0.10}
	thr := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m         metricDef
		base, cur float64
		regressed bool
	}{
		{lat, 10, 10.9, false},
		{lat, 10, 11.1, true},
		{lat, 10, 5, false}, // an improvement never regresses
		{thr, 10, 9.1, false},
		{thr, 10, 8.9, true},
		{thr, 10, 20, false},
	} {
		if got := regressed(c.m, c.base, c.cur); got != c.regressed {
			t.Errorf("%s %v -> %v: regressed = %v, want %v", c.m.Name, c.base, c.cur, got, c.regressed)
		}
	}
}

func TestAbsoluteFloor(t *testing.T) {
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	// 5 ms -> 20 ms is 300% worse but under the 20 ms floor.
	if regressed(setup, 0.005, 0.020) {
		t.Error("setup_s regression under the absolute floor")
	}
	if !regressed(setup, 0.005, 0.030) {
		t.Error("setup_s regression past the floor not caught")
	}
	// Past the floor the relative bound governs.
	if regressed(setup, 1.0, 1.2) || !regressed(setup, 1.0, 1.3) {
		t.Error("setup_s relative bound misapplied above the floor")
	}
}

func TestArrivalsArePacedAndSeeded(t *testing.T) {
	const rate, n = 5.0, 400
	a, b := arrivals(7, rate, n), arrivals(7, rate, n)
	if len(a) != n {
		t.Fatalf("%d arrivals, want %d", len(a), n)
	}
	slot := time.Duration(float64(time.Second) / rate)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across runs of one seed: %v vs %v", i, a[i], b[i])
		}
		if a[i] < time.Duration(i)*slot || a[i] >= time.Duration(i+1)*slot {
			t.Fatalf("arrival %d at %v leaves its slot [%v, %v)", i, a[i], time.Duration(i)*slot, time.Duration(i+1)*slot)
		}
	}
	c := arrivals(8, rate, n)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Error("different seeds gave the same schedule")
	}
	// Gaps are a difference of two uniform draws: mean 1/rate, standard
	// deviation sqrt(1/6)/rate; a fixed grid would have none.
	var gaps []float64
	for i := 1; i < n; i++ {
		gaps = append(gaps, (a[i] - a[i-1]).Seconds())
	}
	m := mean(gaps)
	var ss float64
	for _, g := range gaps {
		ss += (g - m) * (g - m)
	}
	cv := math.Sqrt(ss/float64(len(gaps))) / m
	if math.Abs(m-1/rate) > 0.05/rate || cv < 0.3 || cv > 0.52 {
		t.Errorf("gaps: mean %.4fs (want %.4fs), cv %.2f (want ~0.41)", m, 1/rate, cv)
	}
}

func TestLatencyIsMeasuredFromDueTime(t *testing.T) {
	due := time.Now()
	sent := due.Add(50 * time.Millisecond)
	observed := due.Add(100 * time.Millisecond)
	if got := latency(due, observed); got != 100*time.Millisecond {
		t.Errorf("latency = %v, want 100ms charged from the due time", got)
	}
	if got := lateness(due, sent); got != 50*time.Millisecond {
		t.Errorf("lateness = %v, want 50ms", got)
	}
}

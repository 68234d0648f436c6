package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: p90 needs at least 100 samples, p99 at least 1000. A tail
// percentile over fewer samples is the sample maximum in disguise.
const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample, or the mean of the two middle samples
// of an even-sized set; 0 for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100).
// It refuses, with an error, when fewer than minBeyond samples lie beyond
// the chosen rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g out of range (0, 100)", p)
	}
	if n == 0 {
		return 0, fmt.Errorf("p%g of an empty sample", p)
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sortedCopy(xs)[rank-1], nil
}

// tailPercentile returns the highest of p99 and p90 that xs supports.
func tailPercentile(xs []float64) (float64, error) {
	for _, p := range []float64{99, 90} {
		if v, err := percentile(xs, p); err == nil {
			return v, nil
		}
	}
	return 0, fmt.Errorf("no tail percentile over %d samples (p90 needs %d)", len(xs), 10*minBeyond)
}

// quartiles returns the three cut points dividing xs into quarters, by the
// same "exclusive" interpolation as Python's statistics.quantiles(xs, n=4),
// so quartiles recorded here can be checked against that library.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	n := len(s)
	var q [3]float64
	switch n {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// absFloor gives metrics whose relative bound is meaningless near zero an
// absolute tolerance: set-up is a few milliseconds on the solver workloads.
var absFloor = map[string]float64{"setup_s": 0.020}

// worseBy is how much cur is worse than base in the metric's direction;
// negative when cur is better.
func worseBy(better string, base, cur float64) float64 {
	if better == "higher" {
		return base - cur
	}
	return cur - base
}

// allowance is the change a metric may show before it counts: its bound as
// a share of base, or its absolute floor when that is larger.
func allowance(m metricDef, base float64) float64 {
	return math.Max(m.Bound*math.Abs(base), absFloor[m.Name])
}

// regressed reports whether cur is worse than base by more than the
// metric's allowance.
func regressed(m metricDef, base, cur float64) bool {
	return worseBy(m.Better, base, cur) > allowance(m, base)
}

// arrivals returns the due offsets of a paced open-loop schedule at rate
// per second: arrival i is due at a seeded uniform point of its own slot
// [i/rate, (i+1)/rate). Gaps average 1/rate and vary from 0 to 2/rate, but
// unlike Poisson arrivals the schedule never bunches: over a hundred jobs
// at 70% load, Poisson bunching alone moved the median latency by ±20%
// from seed to seed.
func arrivals(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
	}
	return out
}

// lateness is how long after its due time a request was sent, and latency
// how long after its due time its result was observed: an open-loop
// request delayed by a stalled generator is charged for the delay.
func lateness(due, sent time.Time) time.Duration { return sent.Sub(due) }

func latency(due, observed time.Time) time.Duration { return observed.Sub(due) }

// Package metrics is a dependency-free metrics layer: counters, gauges,
// and fixed-bucket histograms with a lock-free atomic hot path, gathered
// into a registry that renders the Prometheus text exposition format.
//
// Design constraints, in order:
//
//   - Zero dependencies. The whole module builds with the standard
//     library only, and the service must stay that way.
//   - Cheap recording. Observe/Inc/Add on the hot path are a bounded
//     binary search plus 2–3 atomic adds — no locks, no allocation —
//     so solver loops can record unconditionally.
//   - Fixed buckets. Histogram bounds are chosen at registration and
//     never move. Adaptive schemes (t-digest, HDR auto-ranging) give
//     tighter quantiles but need locking or merge steps; fixed
//     log-scaled buckets keep the hot path atomic, make snapshots
//     subtractable (bucket counts are monotone, so before/after deltas
//     isolate a time window), and bound quantile error by the bucket
//     ratio — DurationBuckets uses ratio 1.15, i.e. ≤15% error, inside
//     the 20% tolerance the loadtest asserts against measured p50/p99.
//
// Snapshot read-order contract: Count is read before the bucket array,
// and every Observe increments its bucket before Count, so a snapshot
// always satisfies sum(Counts) >= Count. The histogram concurrency test
// pins this mid-stream consistency.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (CAS loop; contended adds retry).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// A Histogram counts observations into fixed buckets. Bounds are upper
// bounds of each bucket; an implicit +Inf bucket catches the overflow.
type Histogram struct {
	bounds  []float64       // sorted upper bounds, immutable after New
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given sorted upper bounds.
// The bounds slice is copied; an empty slice yields a single +Inf bucket.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value. Lock-free: a binary search over the bounds,
// then three atomic updates (bucket before count — see the package
// snapshot contract).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 // shared, immutable
	Counts []uint64  // per-bucket (NOT cumulative); last is +Inf
	Count  uint64
	Sum    float64
}

// Snapshot copies the current state. Count is read first, buckets after,
// so sum(Counts) >= Count even while writers are mid-Observe.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// ExponentialBuckets returns count upper bounds starting at start and
// multiplying by factor: start, start*factor, ..., start*factor^(count-1).
func ExponentialBuckets(start, factor float64, count int) []float64 {
	b := make([]float64, count)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DurationBuckets is the standard bucket layout for latency histograms:
// 90 log-scaled bounds from 0.5ms to ~126s with ratio 1.15, so
// interpolated quantiles carry at most ~15% bucketing error across the
// whole range a partitioning job can span (sub-ms salvage to multi-
// minute multilevel runs).
func DurationBuckets() []float64 { return ExponentialBuckets(0.0005, 1.15, 90) }

// A HistogramVec is a histogram family partitioned by one label
// (e.g. htpd_job_duration_seconds{rung="flow"}). Children are created
// on first use and share the family's bounds.
type HistogramVec struct {
	bounds []float64
	mu     sync.RWMutex
	kids   map[string]*Histogram
}

// NewHistogramVec builds an empty family over the given bounds.
func NewHistogramVec(bounds []float64) *HistogramVec {
	return &HistogramVec{
		bounds: append([]float64(nil), bounds...),
		kids:   make(map[string]*Histogram),
	}
}

// With returns the child histogram for the given label value, creating
// it on first use. The read path is a shared-lock map hit.
func (v *HistogramVec) With(label string) *Histogram {
	v.mu.RLock()
	h := v.kids[label]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.kids[label]; h == nil {
		h = NewHistogram(v.bounds)
		v.kids[label] = h
	}
	return h
}

// Labels returns the label values seen so far, sorted (deterministic
// exposition order).
func (v *HistogramVec) Labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	ls := make([]string, 0, len(v.kids))
	for l := range v.kids {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return ls
}

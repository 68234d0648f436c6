// Package inject implements Algorithm 2 of Kuo & Cheng (DAC'97): computing
// an approximate spreading metric by stochastic flow injection. Motivated by
// the duality between the spreading-metric LP (P1) and a maximum-flow
// problem over shortest-path trees, the heuristic repeatedly:
//
//  1. grows a shortest-path tree S(v,k) from a random root v under the
//     current lengths d(e),
//  2. stops at the first k whose spreading constraint (5) is violated,
//  3. injects Δ units of flow into every net of the violating tree, and
//  4. re-lengthens the congested nets as d(e) = exp(α·f(e)/c(e)) − 1.
//
// Roots whose constraints all hold leave the active set; the metric is done
// when the set empties. Exponential re-lengthening guarantees progress: each
// injection multiplies the tree nets' lengths, so violated sets spread apart
// geometrically.
//
// The tree growths dominate FLOW's runtime (§3.3), so the engine has two
// execution modes selected by Options.Workers: the exact sequential sweep,
// and a deterministic batched worker pool that grows trees from several
// roots concurrently against lengths frozen per batch (see DESIGN.md,
// "Parallel metric engine").
package inject

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anytime"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/shortest"
)

// Options tunes Algorithm 2. Zero values select the defaults noted on each
// field. The initial flow ε and the exponent cap are constants, epsilon and
// maxExponent, not options.
type Options struct {
	// Alpha scales the congestion exponent (paper's α). Default 4.
	Alpha float64
	// Delta is the flow injected into each net of a violating tree per
	// injection (paper's Δ). Small deltas distribute flow in fine steps and
	// discriminate congested nets much better than coarse ones (compared in
	// the ablation bench). Default 0.02.
	Delta float64
	// MaxRounds bounds the sweeps over the active node set; a safety net
	// that does not bind on sane inputs. Default 500.
	MaxRounds int
	// Rng drives the random sweep order. Defaults to a fixed-seed source so
	// runs are reproducible; Algorithm 1 passes a shared source. The source
	// is only ever drawn from on the calling goroutine — the parallel engine
	// derives one seed per round from it and never hands it to workers — so
	// a fixed seed fully determines the run in every mode.
	Rng *rand.Rand
	// Workers bounds how many shortest-path trees grow concurrently. 0 and 1
	// run the exact sequential sweep (bit-for-bit the historical results).
	// Values above 1 select the batched parallel engine: roots are processed
	// in fixed-size batches against lengths frozen for the batch, and the
	// violated trees' injections merge in batch order, so the metric is a
	// deterministic function of the seed — identical for every Workers >= 2
	// — though not the same as the sequential one. Use runtime.NumCPU() for
	// throughput.
	Workers int
	// Observer receives metric-round and metric-done trace events (see
	// internal/obs). Events are emitted from the calling goroutine only —
	// the parallel engine's workers never emit — and are observe-only: an
	// attached observer cannot change the computed metric. Nil (the
	// default) disables telemetry; the hot path then pays one nil check
	// per sweep round and allocates nothing.
	Observer obs.Observer
	// Span nests the run's events in the caller's span tree: the engine
	// enters one child span for the whole metric computation and stamps
	// it on every event it emits. The zero value is fine — with an
	// Observer it starts a fresh root, without one nothing is minted.
	Span obs.SpanScope
}

const (
	// epsilon is the initial flow on every net (the paper's ε), keeping
	// initial lengths positive but near zero.
	epsilon = 1e-4
	// maxExponent caps α·f(e)/c(e) to keep exp() finite; a net at the cap
	// has effectively infinite length.
	maxExponent = 60
)

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 4
	}
	if o.Delta == 0 {
		o.Delta = 0.02
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 500
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// Stats reports the work done by a ComputeMetric run.
type Stats struct {
	Rounds     int     // sweeps over the active set
	Injections int     // violating trees flooded
	TreeNets   int     // total nets receiving flow (with multiplicity)
	Converged  bool    // active set emptied before MaxRounds
	MaxFlow    float64 // largest f(e) at exit
}

// ComputeMetricCtx runs Algorithm 2 and returns a spreading metric for (h,
// spec) together with run statistics. Every node must fit a leaf block
// (s(v) <= C_0); otherwise no feasible metric or partition exists and an
// error is returned.
//
// The context is checked on every sweep round, before every
// shortest-path-tree growth, and periodically inside long growths (in every
// worker, when parallel). When it fires mid-run the metric computed so far
// — a valid (if unconverged) length assignment, since every intermediate
// state of Algorithm 2 is one — is returned together with the partial Stats
// AND a non-nil error wrapping the context cause, so callers can choose
// between salvaging the partial metric and propagating the interruption. A
// context that is already done at entry yields a nil metric.
func ComputeMetricCtx(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt Options) (*metric.Metric, Stats, error) {
	opt = opt.withDefaults()
	opt.Span, opt.Observer = opt.Span.Enter(opt.Observer)
	if err := spec.Validate(); err != nil {
		return nil, Stats{}, err
	}
	for v := 0; v < h.NumNodes(); v++ {
		if h.NodeSize(hypergraph.NodeID(v)) > spec.Capacity[0] {
			return nil, Stats{}, fmt.Errorf("inject: node %d size %d exceeds C_0 = %d: %w",
				v, h.NodeSize(hypergraph.NodeID(v)), spec.Capacity[0], anytime.ErrOversizedNode)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, fmt.Errorf("inject: metric computation not started: %w", context.Cause(ctx))
	}

	g := newEngine(ctx, h, spec, opt)
	if opt.Workers > 1 {
		g.runParallel()
	} else {
		g.runSequential()
	}

	g.st.Converged = len(g.active) == 0 && !g.interrupted
	for e := range g.flow {
		if g.flow[e] > g.st.MaxFlow {
			g.st.MaxFlow = g.flow[e]
		}
	}
	if opt.Observer != nil {
		// metric-done is emitted on interrupted exits too, so traces of
		// deadline-stopped runs still account the metric phase.
		obs.Emit(opt.Observer, obs.Event{
			Kind:          obs.KindMetricDone,
			Round:         g.st.Rounds,
			Injections:    g.st.Injections,
			TreeNets:      g.st.TreeNets,
			Converged:     g.st.Converged,
			MaxCongestion: g.maxCongestion(),
			ElapsedMS:     obs.Millis(time.Since(g.t0)),
		})
	}
	if g.interrupted {
		return g.m, g.st, fmt.Errorf("inject: metric computation interrupted after %d rounds, %d injections: %w",
			g.st.Rounds, g.st.Injections, context.Cause(ctx))
	}
	return g.m, g.st, nil
}

// newEngine prepares a run of Algorithm 2 on (h, spec): the initial
// lengths, the tabulated bound g(x), and an active set holding every node.
func newEngine(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt Options) *engine {
	g := &engine{
		ctx:     ctx,
		h:       h,
		spec:    spec,
		opt:     opt,
		m:       metric.New(h),
		flow:    make([]float64, h.NumNets()),
		uniform: true,
	}
	if opt.Observer != nil {
		g.t0 = time.Now()
	}
	// Initial lengths. A zero-capacity net is free to cut: the LP can
	// stretch it arbitrarily at zero objective cost, so it gets maximal
	// length once here (it contributes c·d = 0 to the metric value) and is
	// never re-lengthened — its length is a constant, which the injection
	// loops exploit by skipping the exp().
	freeLen := math.Exp(maxExponent) - 1
	for e := 0; e < h.NumNets(); e++ {
		g.flow[e] = epsilon
		if h.NetCapacity(hypergraph.NetID(e)) <= 0 {
			g.m.D[e] = freeLen
		} else {
			g.relength(hypergraph.NetID(e))
		}
	}

	// Prefix sizes during a tree growth only take values in [1, s(V)], and
	// the bound g(x) is asked for every settled node of every growth, so for
	// reasonably-sized designs it pays to evaluate Spec.G once per possible
	// size up front. The table holds the exact bits Spec.G returns — it is a
	// pure function — so results are unchanged; huge weighted designs skip
	// the table and fall back to direct evaluation.
	g.total = h.TotalSize()
	g.gX = spec.G(g.total)
	if g.total <= maxGTableSize {
		g.gTab = make([]float64, g.total+1)
		for x := int64(1); x <= g.total; x++ {
			g.gTab[x] = spec.G(x)
		}
	}

	// Active set V' with O(1) removal: swap-delete (sequential) or ordered
	// compaction (parallel) over a permutation.
	g.active = make([]hypergraph.NodeID, h.NumNodes())
	for i := range g.active {
		g.active[i] = hypergraph.NodeID(i)
		if h.NodeSize(hypergraph.NodeID(i)) != h.NodeSize(0) {
			g.uniform = false
		}
	}
	return g
}

// maxGTableSize bounds the total design size for which g(x) is tabulated
// (8 MiB of float64s); larger designs evaluate Spec.G directly.
const maxGTableSize = 1 << 20

// engine holds the state shared by both execution modes of Algorithm 2.
type engine struct {
	ctx         context.Context
	h           *hypergraph.Hypergraph
	spec        hierarchy.Spec
	opt         Options
	m           *metric.Metric
	flow        []float64
	gTab        []float64 // g(x) by total prefix size; nil for huge designs
	total       int64     // s(V), the size of the whole design
	gX          float64   // g(total), the largest bound any prefix faces
	active      []hypergraph.NodeID
	uniform     bool                     // every node has the same size: retirements may come from Settle
	fell        bool                     // a relength lowered a length, so no snapshot bounds the lengths
	snap        *shortest.LengthSnapshot // the growers' lower bound on every later length; nil until refreshSnapshot builds it
	st          Stats
	interrupted bool
	t0          time.Time // start of the run; zero when no observer
}

// maxCongestion returns the largest f(e)/c(e) over positive-capacity nets
// — the quantity the exponential re-lengthening exponentiates. Only called
// on trace emission (never on the disabled path); an O(nets) scan per
// round is noise next to the round's tree growths.
func (g *engine) maxCongestion() float64 {
	var mc float64
	for e := range g.flow {
		if c := g.h.NetCapacity(hypergraph.NetID(e)); c > 0 {
			if r := g.flow[e] / c; r > mc {
				mc = r
			}
		}
	}
	return mc
}

// endRound ticks the process counters and emits one metric-round trace
// event after a sweep. grown is the number of tree growths the sweep ran,
// viols the violated trees it found. With no observer attached the cost is
// three atomic adds per round.
func (g *engine) endRound(grown, viols int) {
	obs.MetricRounds.Inc()
	obs.TreeGrowths.Add(uint64(grown))
	obs.MetricInjections.Add(uint64(viols))
	o := g.opt.Observer
	if o == nil {
		return
	}
	obs.Emit(o, obs.Event{
		Kind:          obs.KindMetricRound,
		Round:         g.st.Rounds + 1,
		Active:        len(g.active),
		Violations:    viols,
		Injections:    g.st.Injections,
		TreeNets:      g.st.TreeNets,
		MaxCongestion: g.maxCongestion(),
		ElapsedMS:     obs.Millis(time.Since(g.t0)),
	})
}

// relength recomputes d(e) = exp(α·f(e)/c(e)) − 1 after a flow change.
// Zero-capacity nets keep the constant maximal length assigned at
// initialization; callers on the hot path skip them before calling.
func (g *engine) relength(e hypergraph.NetID) {
	c := g.h.NetCapacity(e)
	if c <= 0 {
		return
	}
	x := g.opt.Alpha * g.flow[e] / c
	if x > maxExponent {
		x = maxExponent
	}
	d := math.Exp(x) - 1
	if d < g.m.D[e] {
		// A negative Alpha or Delta makes lengths fall, and so can
		// math.Exp, which is not monotone between adjacent floats.
		g.fell = true
	}
	g.m.D[e] = d
}

// refreshSnapshot runs between rounds, while no growth runs. It takes
// the length snapshot the growers read incidence by length from (see
// shortest.LengthSnapshot) when the round before read more incidence
// entries under a finite ceiling than the incidence arena holds: a refresh
// costs about one pass over the arena. A snapshot stays exact until its
// next refresh because lengths only grow: f(e) only rises, and with it
// exp(α·f(e)/c(e)) − 1. If one ever falls, relength notes it, and from
// then on no grower reads a snapshot. The batched engine's workers share
// the one snapshot read-only.
func (g *engine) refreshSnapshot(ws ...*grower) {
	scans := 0
	for _, w := range ws {
		scans += w.spt.TakeScans()
	}
	if g.fell || scans <= g.h.NumPins() {
		return
	}
	if g.snap == nil {
		g.snap = shortest.NewLengthSnapshot(g.h)
		for _, w := range ws {
			w.spt.UseSnapshot(g.snap)
		}
	}
	g.snap.Refresh(g.m.D)
}

// grower is the scratch of one sequence of tree growths (the sequential
// sweep has one, the batched engine one per worker): an SPT grower and a
// tree-net arena reused across growths, so steady-state growth allocates
// nothing.
type grower struct {
	spt    *shortest.HyperSPT
	inTree []bool
	nets   []hypergraph.NetID
	visits int
	// retired is the verdict of the grower's previous growth: the next one
	// tries the distance-only pass first only after a retirement.
	retired bool
}

func (g *engine) newGrower(netsCap int) *grower {
	return &grower{
		spt:    shortest.NewHyperSPT(g.h),
		inTree: make([]bool, g.h.NumNets()),
		nets:   make([]hypergraph.NetID, 0, netsCap),
	}
}

// prefix is what constraint (5) reads of one growth's settled prefix: its
// total size and its left side, the size-weighted sum of its distances.
type prefix struct {
	size     int64
	lhs      float64
	violated bool
}

// extend is the constraint-(5) prefix test, shared by both passes of both
// engines. It adds node v, settled at distance dist, to the prefix and
// reports whether the growth must go on. It stops the growth when the new
// prefix violates the constraint (p.violated is set), and when the finish
// line shows that no larger prefix can.
func (g *engine) extend(p *prefix, v hypergraph.NodeID, dist float64) bool {
	sz := g.h.NodeSize(v)
	p.size += sz
	p.lhs += dist * float64(sz)
	var bound float64
	if g.gTab != nil {
		bound = g.gTab[p.size]
	} else {
		bound = g.spec.G(p.size)
	}
	if p.lhs < bound-1e-12*(1+bound) {
		p.violated = true
		return false
	}
	// Nodes settle in distance order, so every prefix the rest of this
	// growth can reach has left side at least lhs + dist·(its size − size),
	// a line that g — convex, and already below lhs at the current prefix —
	// can only cross past the design's total size. If the line clears
	// g(total), no larger prefix can violate: the rest of the growth is
	// provably pointless and the root retires either way.
	return p.lhs+dist*float64(g.total-p.size) < g.gX
}

// grow decides constraint (5) for root under the current lengths. A
// violated growth appends its tree's distinct nets to w.nets; any other
// leaves w.nets as it was. aborted reports that the stop flag or the
// context ended the growth first, and the verdict is then void; a growth
// that polls them and finds them set sets the stop flag.
//
// On a design whose nodes all have one size, a grower whose previous
// growth retired runs the distance-only Settle pass first, and a root it
// finds satisfied retires without Grow. With equal sizes, the prefix test
// sees the same (lhs, size, bound) sequence from either pass, bit for bit,
// so both stop at the same prefix with the same verdict. A violated root
// then runs Grow to collect its tree, whose tied nodes and nets only Grow
// decides. After an injection the grower goes straight to Grow, so roots
// that mostly inject do not pay for both passes.
//
// Grow reads incidence by length from the engine's snapshot, which
// refreshSnapshot hands every grower, until a length falls.
func (g *engine) grow(w *grower, root hypergraph.NodeID, stop *atomic.Bool) (violated, aborted bool) {
	halt := func() bool {
		w.visits++
		if w.visits&4095 == 0 && (stop.Load() || g.ctx.Err() != nil) {
			stop.Store(true)
			aborted = true
		}
		return aborted
	}
	if g.uniform && w.retired {
		var p prefix
		w.spt.Settle(root, g.m.D, func(v hypergraph.NodeID, dist float64) bool {
			return !halt() && g.extend(&p, v, dist)
		})
		if aborted || !p.violated {
			return false, aborted
		}
	}
	if g.fell {
		w.spt.UseSnapshot(nil)
	}
	var p prefix
	off := len(w.nets)
	w.spt.Grow(root, g.m.D, func(v shortest.Visit) bool {
		if halt() {
			return false
		}
		if v.Via >= 0 && !w.inTree[v.Via] {
			w.inTree[v.Via] = true
			w.nets = append(w.nets, v.Via)
		}
		return g.extend(&p, v.Node, v.Dist)
	})
	for _, e := range w.nets[off:] {
		w.inTree[e] = false
	}
	if aborted || !p.violated {
		// Satisfied roots retire; their tree nets are never injected.
		w.nets = w.nets[:off]
	}
	if !aborted {
		w.retired = !p.violated
	}
	return p.violated, aborted
}

// runSequential is the historical exact sweep: one tree growth at a time,
// each seeing every injection made before it, roots retired by swap-delete.
func (g *engine) runSequential() {
	opt := g.opt
	w := g.newGrower(64)
	var stop atomic.Bool
	for g.st.Rounds = 0; g.st.Rounds < opt.MaxRounds && len(g.active) > 0 && !g.interrupted; g.st.Rounds++ {
		g.refreshSnapshot(w)
		opt.Rng.Shuffle(len(g.active), func(i, j int) {
			g.active[i], g.active[j] = g.active[j], g.active[i]
		})
		grown, injBefore := 0, g.st.Injections
		// Sweep a snapshot of the active set; nodes whose constraints all
		// hold are removed.
		for idx := 0; idx < len(g.active); {
			if g.ctx.Err() != nil {
				g.interrupted = true
				break
			}
			root := g.active[idx]
			w.nets = w.nets[:0]
			violated, aborted := g.grow(w, root, &stop)
			if aborted {
				g.interrupted = true
				break
			}
			grown++
			if violated {
				g.st.Injections++
				g.st.TreeNets += len(w.nets)
				for _, e := range w.nets {
					g.flow[e] += opt.Delta
					g.relength(e)
				}
				idx++ // keep root active; lengths changed under it
			} else {
				// Constraint (5) holds for every k from this root: retire it.
				g.active[idx] = g.active[len(g.active)-1]
				g.active = g.active[:len(g.active)-1]
			}
		}
		g.endRound(grown, g.st.Injections-injBefore)
	}
}

// parallelBatch is the number of roots a batch of concurrent tree growths
// covers. It is a fixed constant — NOT a function of Options.Workers — so
// the batch structure, and with it the computed metric, depends only on the
// seed: every Workers >= 2 produces the identical result, workers merely
// split the same batches. 32 keeps staleness low (lengths refresh every 32
// roots) while giving a full CPU's worth of concurrent growths.
const parallelBatch = 32

// rootResult records one root's growth against the batch's frozen lengths.
// Tree nets live in the owning worker's arena at [off, off+n).
type rootResult struct {
	done     bool
	violated bool
	worker   int32
	off, n   int
}

// runParallel is the batched engine: per round, shuffle the active set with
// a round-local rng seeded from opt.Rng, then process it in fixed batches.
// Workers grow trees for a batch's roots concurrently against d(e) frozen
// for the batch (the coordinator only mutates lengths between batches);
// afterwards the violated trees' injections are merged in batch order and
// satisfied roots retire. Everything a worker computes is a pure function of
// (root, frozen lengths), and the merge order is canonical, so scheduling
// cannot influence the metric. See DESIGN.md "Parallel metric engine" for
// the determinism and convergence arguments.
func (g *engine) runParallel() {
	opt := g.opt
	workers := opt.Workers
	if workers > parallelBatch {
		workers = parallelBatch
	}

	var (
		stop    atomic.Bool // a worker saw ctx done: drain the batch fast
		next    atomic.Int64
		batch   []hypergraph.NodeID
		results [parallelBatch]rootResult
		wg      sync.WaitGroup
		startCh = make(chan struct{})
	)
	defer close(startCh)

	scratch := make([]*grower, workers)
	for w := range scratch {
		scratch[w] = g.newGrower(256)
		//htpvet:allow nakedgoroutine -- vetted worker pool: growRoot is pure array code over caller-owned scratch; a panic here is a solver bug that must surface, not be contained (DESIGN.md "Parallel metric engine"; re-audited for the interprocedural suite: workers take no locks and stop via the shared stop flag growRoot polls)
		go func(id int32, ws *grower) {
			for range startCh {
				for {
					i := int(next.Add(1) - 1)
					if i >= len(batch) || stop.Load() {
						break
					}
					g.growRoot(ws, id, batch[i], &results[i], &stop)
				}
				wg.Done()
			}
		}(int32(w), scratch[w])
	}

	for g.st.Rounds = 0; g.st.Rounds < opt.MaxRounds && len(g.active) > 0 && !g.interrupted; g.st.Rounds++ {
		g.refreshSnapshot(scratch...)
		// One seed per round from the caller's source; the shuffle runs on a
		// round-local rng so the shared *rand.Rand never crosses goroutines
		// and the permutation stream is independent of worker count.
		roundRng := rand.New(rand.NewSource(opt.Rng.Int63()))
		roundRng.Shuffle(len(g.active), func(i, j int) {
			g.active[i], g.active[j] = g.active[j], g.active[i]
		})

		// Survivors compact in place behind the batch cursor: the write
		// index never catches up to the batch being read, and workers only
		// run between wg.Add and wg.Wait while the coordinator is idle.
		n := 0
		grown, injBefore := 0, g.st.Injections
		for start := 0; start < len(g.active); start += parallelBatch {
			if g.ctx.Err() != nil {
				g.interrupted = true
				break
			}
			end := start + parallelBatch
			if end > len(g.active) {
				end = len(g.active)
			}
			batch = g.active[start:end]
			for i := range batch {
				results[i] = rootResult{}
			}
			for _, ws := range scratch {
				ws.nets = ws.nets[:0]
			}
			next.Store(0)
			wg.Add(workers)
			//htpvet:allow ctxpoll -- rendezvous with the dedicated worker pool: each send completes as soon as a worker's range loop comes back around, and the enclosing batch loop polls g.ctx right above
			for w := 0; w < workers; w++ {
				startCh <- struct{}{}
			}
			wg.Wait()

			// Merge in canonical batch order. On interruption the prefix of
			// completed roots still merges — any prefix of injections is a
			// valid intermediate state — and the rest stays active.
			for i, root := range batch {
				r := &results[i]
				if !r.done {
					g.interrupted = true
					break
				}
				grown++
				if r.violated {
					g.st.Injections++
					g.st.TreeNets += r.n
					ws := scratch[r.worker]
					for _, e := range ws.nets[r.off : r.off+r.n] {
						g.flow[e] += opt.Delta
						g.relength(e)
					}
					g.active[n] = root
					n++
				}
			}
			if g.interrupted {
				break
			}
		}
		if g.interrupted {
			// The partial round still ran growths and merged a prefix of
			// injections: account it before bailing (active keeps its
			// pre-compaction length; the run is over either way).
			g.endRound(grown, g.st.Injections-injBefore)
			break
		}
		g.active = g.active[:n]
		g.endRound(grown, g.st.Injections-injBefore)
	}
}

// growRoot grows one shortest-path tree against the batch's frozen lengths
// and records whether the root's spreading constraint is violated, plus the
// violating tree's nets in the worker's arena. It is a pure function of
// (root, g.m.D): workers share no mutable state except their own scratch.
// Which pass decides a root depends on the worker's previous growth, and so
// on scheduling, but both passes give the same verdict and the tree always
// comes from Grow.
func (g *engine) growRoot(ws *grower, id int32, root hypergraph.NodeID, r *rootResult, stop *atomic.Bool) {
	if stop.Load() || g.ctx.Err() != nil {
		stop.Store(true)
		return
	}
	off := len(ws.nets)
	violated, aborted := g.grow(ws, root, stop)
	if aborted {
		return
	}
	*r = rootResult{done: true, violated: violated, worker: id, off: off, n: len(ws.nets) - off}
}

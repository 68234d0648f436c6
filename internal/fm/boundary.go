package fm

import (
	"context"
	"math/rand"
	"slices"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// BoundaryOptions tunes the boundary-localized refinement.
type BoundaryOptions struct {
	// MaxPasses bounds worklist sweeps. Default 8.
	MaxPasses int
	// Rng orders each sweep. Defaults to a fixed seed.
	Rng *rand.Rand
	// Observer receives one refine-pass event per pass and a terminal
	// "refine-boundary" span. Nil disables telemetry at zero cost.
	Observer obs.Observer
	// Span nests the refinement's events in the caller's span tree —
	// multilevel uncoarsening scopes each level's refinement under that
	// level's span. Zero value is fine.
	Span obs.SpanScope
}

// MaxNetScan caps the nets the boundary refiner scans for candidate
// leaves, worklist seeds and re-enqueued neighbours, and the nets
// Crossing accepts; internal/flowrefine applies the same cap to its
// pair seeding, corridor growth and flow model. Giant nets (clock trees,
// global enables) span most blocks whatever the refiner does; scanning
// their full pin lists per visited node is the dominant cost on large
// instances and almost never yields a move. Their pins still participate
// through every smaller net they touch, and their span terms still count
// in every move's delta.
const MaxNetScan = 256

func (o BoundaryOptions) withDefaults() BoundaryOptions {
	if o.MaxPasses == 0 {
		o.MaxPasses = 8
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// BoundaryRefiner is the localized cousin of RefineHierarchicalCtx used by
// the multilevel uncoarsening pass: instead of sweeping every node every
// pass, it keeps a worklist seeded with the boundary (nodes on nets whose
// pins touch more than one leaf) and, after each applied move, re-enqueues
// only the moved node's net neighborhood for the next pass. On a partition
// projected from a coarser level almost all nodes are interior — their nets
// sit entirely inside one leaf and no single move can improve them — so the
// work per pass is proportional to the boundary, not to n, which is what
// makes per-level refinement affordable on 10^5-node instances.
//
// Moves and feasibility (K_l/C_l via CostState.CanMove) are
// RefineHierarchicalCtx's, chosen by the same routine (mover). Two things
// differ: the visit set, and the candidate leaves, which come only from
// nets of at most MaxNetScan pins.
// Determinism: the worklist is built by index-ordered scans (never map
// iteration) and shuffled by opt.Rng, so a fixed seed reproduces the run.
//
// The refiner's scratch (the CostState arena, the move selector, the two
// worklists and their marks) lives across calls: a V-cycle keeps one
// refiner for its whole descent and Reserves it for the finest graph, so
// no level after the first allocates. The zero value is ready to use;
// calls must not overlap.
type BoundaryRefiner struct {
	cs         hierarchy.CostState
	mv         mover
	mark       []uint32 // mark[v] == gen: v is on the list being built
	gen        uint32
	work, next []hypergraph.NodeID
}

// Reserve sizes the refiner for partitions of h, or of any graph
// contracted from h, on a tree shaped like t under spec
// (hierarchy.CostState.Reserve).
func (r *BoundaryRefiner) Reserve(h *hypergraph.Hypergraph, t *hierarchy.Tree, spec hierarchy.Spec) {
	r.cs.Reserve(h, t, spec)
	n := h.NumNodes()
	r.mark = slices.Grow(r.mark[:0], n)
	r.work = slices.Grow(r.work[:0], n)
	r.next = slices.Grow(r.next[:0], n)
}

// RefineCtx refines p in place; every intermediate state is valid, so
// cancellation stops early and returns the best cost reached. Returns the
// final cost and total improvement (initial − final ≥ 0).
func (r *BoundaryRefiner) RefineCtx(ctx context.Context, p *hierarchy.Partition, opt BoundaryOptions) (cost, improvement float64) {
	opt = opt.withDefaults()
	_, opt.Observer = opt.Span.Enter(opt.Observer)
	cs := &r.cs
	cs.Reset(p)
	initial := cs.Cost()

	var t0 time.Time
	if opt.Observer != nil {
		t0 = time.Now()
		defer func() {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindSpan, Phase: "refine-boundary",
				Cost: cs.Cost(), ElapsedMS: obs.Millis(time.Since(t0))})
		}()
	}

	r.mark, r.gen = zeroed(r.mark, p.H.NumNodes()), 0
	work := r.boundary(p)
	r.mv.reset(cs, MaxNetScan)
	for pass := 0; pass < opt.MaxPasses && len(work) > 0 && ctx.Err() == nil; pass++ {
		opt.Rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		gen := r.newList()
		next := r.next[:0]
		for wi, v := range work {
			if wi&255 == 255 && ctx.Err() != nil {
				return cs.Cost(), initial - cs.Cost()
			}
			leaf, _ := r.mv.best(v)
			if leaf < 0 {
				continue
			}
			cs.Apply(v, leaf)
			for _, e := range p.H.Incident(v) {
				pins := p.H.Pins(e)
				if len(pins) > MaxNetScan {
					continue
				}
				for _, u := range pins {
					if r.mark[u] != gen {
						r.mark[u] = gen
						next = append(next, u)
					}
				}
			}
		}
		if opt.Observer != nil {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindRefinePass, Round: pass + 1,
				Cost: cs.Cost(), ElapsedMS: obs.Millis(time.Since(t0))})
		}
		// The lists trade arrays, so both stay with the refiner.
		r.work, r.next = next, work
		work = next
	}
	return cs.Cost(), initial - cs.Cost()
}

// newList starts a worklist: no node is marked on it yet.
func (r *BoundaryRefiner) newList() uint32 {
	if r.gen++; r.gen == 0 {
		clear(r.mark)
		r.gen = 1
	}
	return r.gen
}

// boundary fills the refiner's worklist with the distinct pins of the
// partition's crossing nets (Crossing) in first-touch order, scanning nets
// in ascending order, so the list is deterministic.
func (r *BoundaryRefiner) boundary(p *hierarchy.Partition) []hypergraph.NodeID {
	gen := r.newList()
	work := r.work[:0]
	for e := 0; e < p.H.NumNets(); e++ {
		if !Crossing(p, hypergraph.NetID(e)) {
			continue
		}
		for _, u := range p.H.Pins(hypergraph.NetID(e)) {
			if r.mark[u] != gen {
				r.mark[u] = gen
				work = append(work, u)
			}
		}
	}
	r.work = work
	return work
}

// Crossing reports whether net e has at most MaxNetScan pins and they
// touch more than one leaf. It is the shared seed test of the
// boundary-localized FM worklist and of flowrefine's pair scan.
func Crossing(p *hierarchy.Partition, e hypergraph.NetID) bool {
	pins := p.H.Pins(e)
	if len(pins) > MaxNetScan {
		return false
	}
	first := p.LeafOf[pins[0]]
	for _, u := range pins[1:] {
		if p.LeafOf[u] != first {
			return true
		}
	}
	return false
}

// zeroed returns s resliced to n zero elements, allocating only when its
// capacity is short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

package fm

import (
	"context"
	"math/rand"
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
// CollectBoundary returns; internal/flowrefine applies the same cap to its
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

// RefineBoundaryCtx is the localized cousin of RefineHierarchicalCtx used by
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
// The partition is refined in place; every intermediate state is valid, so
// cancellation stops early and returns the best cost reached. Returns the
// final cost and total improvement (initial − final ≥ 0).
func RefineBoundaryCtx(ctx context.Context, p *hierarchy.Partition, opt BoundaryOptions) (cost, improvement float64) {
	opt = opt.withDefaults()
	_, opt.Observer = opt.Span.Enter(opt.Observer)
	cs := hierarchy.NewCostState(p)
	initial := cs.Cost()

	var t0 time.Time
	if opt.Observer != nil {
		t0 = time.Now()
		defer func() {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindSpan, Phase: "refine-boundary",
				Cost: cs.Cost(), ElapsedMS: obs.Millis(time.Since(t0))})
		}()
	}

	n := p.H.NumNodes()
	// mark guards worklist membership while a list is being built; entries
	// are unmarked once the list is adopted so the next pass can rebuild.
	mark := make([]bool, n)
	_, work := CollectBoundary(p)
	mv := newMover(cs, MaxNetScan)
	for pass := 0; pass < opt.MaxPasses && len(work) > 0 && ctx.Err() == nil; pass++ {
		opt.Rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		var next []int
		for wi, vi := range work {
			if wi&255 == 255 && ctx.Err() != nil {
				return cs.Cost(), initial - cs.Cost()
			}
			v := hypergraph.NodeID(vi)
			leaf, _ := mv.best(v)
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
					if !mark[u] {
						mark[u] = true
						next = append(next, int(u))
					}
				}
			}
		}
		if opt.Observer != nil {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindRefinePass, Round: pass + 1,
				Cost: cs.Cost(), ElapsedMS: obs.Millis(time.Since(t0))})
		}
		work = next
		for _, v := range work {
			mark[v] = false
		}
	}
	return cs.Cost(), initial - cs.Cost()
}

// CollectBoundary scans the partition's nets once and returns the crossing
// nets (pins touching more than one leaf) in ascending net order, plus the
// distinct pins of those nets in first-touch order — the partition's
// boundary. Nets with more than MaxNetScan pins are skipped. It is the
// shared seed scan of the boundary-localized FM worklist and of
// flowrefine's pairwise corridor extraction; both orders are index-derived,
// so the result is deterministic.
func CollectBoundary(p *hierarchy.Partition) (crossing []hypergraph.NetID, nodes []int) {
	mark := make([]bool, p.H.NumNodes())
	for e := 0; e < p.H.NumNets(); e++ {
		pins := p.H.Pins(hypergraph.NetID(e))
		if len(pins) > MaxNetScan {
			continue
		}
		first := p.LeafOf[pins[0]]
		cross := false
		for _, u := range pins[1:] {
			if p.LeafOf[u] != first {
				cross = true
				break
			}
		}
		if !cross {
			continue
		}
		crossing = append(crossing, hypergraph.NetID(e))
		for _, u := range pins {
			if !mark[u] {
				mark[u] = true
				nodes = append(nodes, int(u))
			}
		}
	}
	return crossing, nodes
}

// Package flowrefine implements flow-based pairwise refinement of a
// hierarchical tree partition, in the manner of KaHyPar-MF: for each
// adjacent pair of leaf blocks it extracts the cut boundary plus a
// slack-sized corridor, models the corridor as an s–t hypergraph min-cut
// (the Lawler net-splitting expansion in internal/maxflow), solves it with
// Dinic, and adopts the induced move batch only when it lowers the
// hierarchical cost while respecting every K_l/C_l bound. Flow cuts escape
// the single-move horizon of FM: a whole group of nodes crosses the cut at
// once, which is exactly what move-based refinement cannot see.
//
// Correctness is enforced at acceptance, not proposal, time: the flow model
// is only a heuristic proposal generator (leaf-level net structure, the
// hierarchical objective folded to a constant per pair), so every batch is
// re-evaluated with the exact incremental CostState delta, checked against
// all capacity bounds, and — when Options.Certify is set, as every wired
// caller does with internal/verify — independently re-certified before it
// is kept. A batch that would overflow any C_l bound is rejected whole,
// deterministically; nothing is ever clamped to fit.
//
// Determinism: pair order is index-derived and shuffled by the seeded rng;
// pairs are solved in fixed-size batches, each worker taking a fixed
// stride of the batch's indices, against a frozen partition snapshot, and
// the resulting proposals are applied sequentially in pair order, so the
// result is bit-identical at any Workers count.
package flowrefine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/anytime"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// Options tunes the pairwise flow refinement. Its caps are constants:
// fm.MaxNetScan on net size everywhere (pair seeding, corridor growth, the
// flow model), maxPairSpan and corridorNodes.
type Options struct {
	// MaxRounds bounds the sweeps over the adjacent-pair list; a round with
	// no accepted batch ends the refinement early. Default 2.
	MaxRounds int
	// Workers parallelizes the pair solves. Results are bit-identical at
	// any value. Default 1.
	Workers int
	// Seed orders the pair sweeps. Default 1.
	Seed int64
	// Certify, when set, independently re-certifies the partition after
	// every accepted move batch; a certification failure reverts the batch
	// and aborts the refinement with an error (it means a solver bug, not a
	// bad proposal). The wired callers pass internal/verify's Certify —
	// this is a callback only because verify's oracle layer depends on
	// internal/htp, which depends back on this package.
	Certify func(p *hierarchy.Partition, cost float64) error
	// Observer receives one refine-pass event per round and a terminal
	// "flow-refine" span. Nil disables telemetry at zero cost.
	Observer obs.Observer
	// Span nests the refinement's events in the caller's span tree. Zero
	// value is fine.
	Span obs.SpanScope
}

func (o Options) withDefaults() Options {
	if o.MaxRounds == 0 {
		o.MaxRounds = 2
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Stats reports what a refinement run did.
type Stats struct {
	// Rounds is the number of pair sweeps performed.
	Rounds int
	// Pairs counts pair subproblems solved (corridor + min-cut).
	Pairs int
	// Accepted counts adopted move batches; Moves the nodes they moved.
	Accepted int
	Moves    int
	// RejectedWorse counts batches reverted for not improving the exact
	// hierarchical cost; RejectedInfeasible counts batches rejected whole
	// because they would overflow a C_l bound.
	RejectedWorse      int
	RejectedInfeasible int
	// Certified counts accepted batches re-certified by Options.Certify.
	Certified int
}

// pairBatch is the fixed number of pair subproblems per parallel batch.
// Like inject's batch constant it is deliberately NOT a function of
// Workers: batch boundaries are apply barriers, so the constant is part of
// the deterministic schedule.
const pairBatch = 8

// RefineCtx refines p in place and returns the final cost, the total
// improvement (initial − final ≥ 0), and run statistics. Every intermediate
// state is a valid partition — batches apply atomically — so cancellation
// stops between batches and returns the best cost reached, per the anytime
// contract. The error is nil unless the input is invalid (wrapping
// anytime.ErrInvalidSpec), a worker panicked, or Options.Certify rejected
// an accepted batch.
func RefineCtx(ctx context.Context, p *hierarchy.Partition, opt Options) (cost, improvement float64, st Stats, err error) {
	opt = opt.withDefaults()
	if p == nil || p.H == nil || p.Tree == nil {
		return 0, 0, st, fmt.Errorf("flowrefine: nil partition: %w", anytime.ErrInvalidSpec)
	}
	if len(p.LeafOf) != p.H.NumNodes() {
		return 0, 0, st, fmt.Errorf("flowrefine: %d assignments for %d nodes: %w",
			len(p.LeafOf), p.H.NumNodes(), anytime.ErrInvalidSpec)
	}
	for v, leaf := range p.LeafOf {
		if leaf < 0 || int(leaf) >= p.Tree.NumVertices() {
			return 0, 0, st, fmt.Errorf("flowrefine: node %d unassigned: %w", v, anytime.ErrInvalidSpec)
		}
	}
	_, opt.Observer = opt.Span.Enter(opt.Observer)

	cs := hierarchy.NewCostState(p)
	initial := cs.Cost()
	var t0 time.Time
	if opt.Observer != nil {
		t0 = time.Now()
		defer func() {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindSpan, Phase: "flow-refine",
				Cost: cs.Cost(), ElapsedMS: obs.Millis(time.Since(t0)),
				Detail: fmt.Sprintf("%d pairs, %d batches accepted, %d moves", st.Pairs, st.Accepted, st.Moves)})
		}()
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	ap := newApplier(cs)
	scratches := make([]*pairScratch, opt.Workers)
	for round := 0; round < opt.MaxRounds && ctx.Err() == nil; round++ {
		pairs := collectPairs(p, opt)
		if len(pairs) == 0 {
			break
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		st.Rounds++
		acceptedBefore := st.Accepted
		if err := sweepPairs(ctx, p, cs, ap, pairs, scratches, opt, &st); err != nil {
			return cs.Cost(), initial - cs.Cost(), st, err
		}
		if opt.Observer != nil {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindRefinePass, Round: round + 1,
				Cost: cs.Cost(), ElapsedMS: obs.Millis(time.Since(t0))})
		}
		if st.Accepted == acceptedBefore {
			break
		}
	}
	return cs.Cost(), initial - cs.Cost(), st, nil
}

// sweepPairs runs one round: fixed-size batches of pair subproblems are
// solved in parallel against the partition state frozen at the batch
// boundary, then applied sequentially in pair order. Workers only read
// shared state (LeafOf, block sizes); all mutation happens between batches
// on the applying goroutine, so the schedule — and therefore the result —
// does not depend on the worker count.
func sweepPairs(ctx context.Context, p *hierarchy.Partition, cs *hierarchy.CostState,
	ap *applier, pairs []*pairTask, scratches []*pairScratch, opt Options, st *Stats) error {
	props := make([]*proposal, len(pairs))
	for lo := 0; lo < len(pairs); lo += pairBatch {
		if ctx.Err() != nil {
			return nil
		}
		hi := lo + pairBatch
		if hi > len(pairs) {
			hi = len(pairs)
		}
		if err := solveBatch(ctx, p, cs, pairs, props, lo, hi, scratches, opt, st); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return nil
			}
			if props[i] == nil {
				continue
			}
			if err := ap.apply(props[i], opt, st); err != nil {
				return err
			}
			props[i] = nil
		}
	}
	return nil
}

// solveBatch computes props[lo:hi] in parallel. Worker w solves pairs
// lo+w, lo+w+workers, … and writes only those slots, so its scratch meets
// the same pairs in the same order on every run: the cut workspace grows
// the same way, and the bytes a refinement allocates repeat. Panics are
// contained per worker and surface as an error after the barrier.
func solveBatch(ctx context.Context, p *hierarchy.Partition, cs *hierarchy.CostState,
	pairs []*pairTask, props []*proposal, lo, hi int, scratches []*pairScratch, opt Options, st *Stats) error {
	workers := opt.Workers
	if span := hi - lo; workers > span {
		workers = span
	}
	var (
		wg     sync.WaitGroup
		panics = make([]error, workers)
	)
	worker := func(id int) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panics[id] = fmt.Errorf("flowrefine: pair worker panicked: %v\n%s", r, debug.Stack())
			}
		}()
		if scratches[id] == nil {
			scratches[id] = newPairScratch(p)
		}
		sc := scratches[id]
		for i := lo + id; i < hi; i += workers {
			if ctx.Err() != nil {
				return
			}
			props[i] = solvePair(ctx, p, cs, pairs[i], opt, sc)
		}
	}
	if workers <= 1 {
		wg.Add(1)
		worker(0)
	} else {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go worker(w)
		}
		wg.Wait()
	}
	for _, perr := range panics {
		if perr != nil {
			return perr
		}
	}
	for i := lo; i < hi; i++ {
		if props[i] != nil {
			st.Pairs++
			if props[i].err != nil {
				return props[i].err
			}
		}
	}
	return nil
}

// move reassigns one node to a leaf; from is recorded at apply time for the
// batch revert.
type move struct {
	v        int32
	to, from int32
}

// applier validates and applies one proposal's move batch atomically
// against the live cost state. It owns the only mutation path, runs on a
// single goroutine, and keeps reusable per-tree-vertex scratch.
type applier struct {
	cs    *hierarchy.CostState
	p     *hierarchy.Partition
	delta []int64 // net size change per tree vertex, for the feasibility pre-check
	touch []int32 // touched tree vertices, in touch order (deterministic reset)
	live  []move
}

func newApplier(cs *hierarchy.CostState) *applier {
	return &applier{cs: cs, p: cs.P, delta: make([]int64, cs.P.Tree.NumVertices())}
}

// apply re-validates pr against the live state and either adopts the whole
// batch or leaves the partition untouched. Order of checks:
//
//  1. stale moves (nodes already at their target — an earlier batch moved
//     them) drop out;
//  2. the net size delta of the remaining moves is accumulated per tree
//     vertex and every growing vertex is checked against its C_l bound —
//     the whole batch is rejected on any overflow, BEFORE anything is
//     applied. This is the corridor analogue of findCut's oversized-seed
//     rule: a proposal that does not fit is refused deterministically,
//     never clamped down to a sub-batch that happens to fit;
//  3. the batch is trial-applied through CostState (exact deltas); if the
//     realized total does not improve the cost it is reverted in reverse
//     order;
//  4. an adopted batch is re-certified by Options.Certify; a rejection
//     there reverts the batch and aborts with an error.
func (ap *applier) apply(pr *proposal, opt Options, st *Stats) error {
	ap.live = ap.live[:0]
	for _, m := range pr.moves {
		if from := ap.p.LeafOf[m.v]; from != m.to {
			ap.live = append(ap.live, move{v: m.v, to: m.to, from: from})
		}
	}
	if len(ap.live) == 0 {
		return nil
	}

	ap.touch = ap.touch[:0]
	for _, m := range ap.live {
		s := ap.p.H.NodeSize(hypergraph.NodeID(m.v))
		for q := int(m.to); q >= 0; q = ap.p.Tree.Parent(q) {
			if ap.delta[q] == 0 {
				ap.touch = append(ap.touch, int32(q))
			}
			ap.delta[q] += s
		}
		for q := int(m.from); q >= 0; q = ap.p.Tree.Parent(q) {
			if ap.delta[q] == 0 {
				ap.touch = append(ap.touch, int32(q))
			}
			ap.delta[q] -= s
		}
	}
	feasible := true
	height := ap.p.Spec.Height()
	for _, q := range ap.touch {
		d := ap.delta[q]
		if d > 0 && feasible {
			if l := ap.p.Tree.Level(int(q)); l < height && ap.cs.BlockSize(int(q))+d > ap.p.Spec.Capacity[l] {
				feasible = false
			}
		}
	}
	for _, q := range ap.touch {
		ap.delta[q] = 0
	}
	if !feasible {
		st.RejectedInfeasible++
		return nil
	}

	var total float64
	for _, m := range ap.live {
		total += ap.cs.Apply(hypergraph.NodeID(m.v), int(m.to))
	}
	if total >= -1e-9 {
		for i := len(ap.live) - 1; i >= 0; i-- {
			ap.cs.Apply(hypergraph.NodeID(ap.live[i].v), int(ap.live[i].from))
		}
		st.RejectedWorse++
		return nil
	}
	if opt.Certify != nil {
		if cerr := opt.Certify(ap.p, ap.cs.Cost()); cerr != nil {
			for i := len(ap.live) - 1; i >= 0; i-- {
				ap.cs.Apply(hypergraph.NodeID(ap.live[i].v), int(ap.live[i].from))
			}
			return fmt.Errorf("flowrefine: accepted batch failed certification (pair %d-%d, %d moves): %w",
				pr.a, pr.b, len(ap.live), cerr)
		}
		st.Certified++
	}
	st.Accepted++
	st.Moves += len(ap.live)
	return nil
}

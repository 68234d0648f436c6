package htp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/anytime"
	"repro/internal/fm"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
)

// CutEngine selects the node set to separate next during top-down
// construction: given the current sub-hypergraph, per-net lengths (indexed
// by the subgraph's net IDs), and the size window, it returns the nodes (in
// sub-hypergraph IDs) to split off. Algorithm 3 uses the spreading-metric
// Prim growth; RFM plugs in an FM min-cut engine instead.
type CutEngine func(sub *hypergraph.Hypergraph, d []float64, lb, ub int64, rng *rand.Rand) []hypergraph.NodeID

// BuildOptions tunes the top-down construction (Algorithm 3).
type BuildOptions struct {
	// Rng seeds the cut growth. Defaults to a fixed seed.
	Rng *rand.Rand
	// FixedLB reproduces the paper's literal LB = s(V)/K_l computed once
	// per recursion. The default (false) recomputes
	// LB = s(remaining)/(slots left), which guarantees the branch bound
	// K_l; see DESIGN.md §5. Compared in the ablation bench.
	FixedLB bool
	// Engine overrides the cut engine; nil selects the spreading-metric
	// find_cut of Algorithm 3.
	Engine CutEngine
	// CarveAttempts runs the cut engine this many times per separation
	// (fresh random seeds) and keeps the piece with the smallest crossing
	// capacity. A finer-grained form of the paper's §5 suggestion to build
	// multiple partitions per metric; the growth is cheap next to the
	// metric computation. Default 4. RFM sets 1 (its FM engine is already
	// a full local search).
	CarveAttempts int
	// PolishCuts refines each selected piece's boundary with FM passes
	// before recursing — the "more sophisticated algorithms ... to find a
	// minimum cut" refinement the paper's §5 leaves as future work. Off by
	// default so FLOW stays purely constructive as in Table 2; the ablation
	// bench measures what it buys.
	PolishCuts bool
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	if o.Engine == nil {
		o.Engine = new(cutScratch).findCut
	}
	if o.CarveAttempts == 0 {
		o.CarveAttempts = 4
	}
	return o
}

// BuildCtx constructs a hierarchical tree partition from per-net lengths d
// (a spreading metric) by the top-down recursion of Algorithm 3: the root
// level follows from the design size; at each vertex of level l, node sets
// within [LB..C_{l-1}] are repeatedly separated by the cut engine and each
// is recursed on one level down. Pieces that already fit lower levels grow
// single-child chains, keeping all leaves at level 0.
//
// The context is checked at every recursion vertex and carve attempt. A
// half-built partition is not a valid one, so on cancellation BuildCtx
// returns an error wrapping anytime.ErrNoPartition and the context cause;
// FlowCtx treats that as "stop now, keep the best earlier construction".
func BuildCtx(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, d []float64, opt BuildOptions) (*hierarchy.Partition, error) {
	opt = opt.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(d) != h.NumNets() {
		return nil, fmt.Errorf("htp: %d lengths for %d nets: %w", len(d), h.NumNets(), anytime.ErrInvalidSpec)
	}
	if h.NumNodes() == 0 {
		return nil, fmt.Errorf("htp: empty hypergraph: %w", anytime.ErrInvalidSpec)
	}
	for v := 0; v < h.NumNodes(); v++ {
		if h.NodeSize(hypergraph.NodeID(v)) > spec.Capacity[0] {
			return nil, fmt.Errorf("htp: node %d size %d exceeds C_0 = %d: %w",
				v, h.NodeSize(hypergraph.NodeID(v)), spec.Capacity[0], anytime.ErrOversizedNode)
		}
	}

	top := spec.TopLevel(h.TotalSize())
	tree := hierarchy.NewTree(top)
	p := hierarchy.NewPartition(h, spec, tree)

	all := make([]hypergraph.NodeID, h.NumNodes())
	for i := range all {
		all[i] = hypergraph.NodeID(i)
	}
	b := &builder{ctx: ctx, p: p, spec: spec, opt: opt}
	if err := b.place(tree.Root(), h, all, d); err != nil {
		return nil, err
	}
	return p, nil
}

type builder struct {
	ctx  context.Context
	p    *hierarchy.Partition
	spec hierarchy.Spec
	opt  BuildOptions
}

// interrupted reports the context error to surface, nil while live.
func (b *builder) interrupted() error {
	if b.ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("htp: construction interrupted: %w",
		errors.Join(anytime.ErrNoPartition, context.Cause(b.ctx)))
}

// errUnpackable marks a decomposition that needed more than K_l blocks at
// some vertex — a packing failure a re-carve (different random pieces, at
// this vertex or an ancestor) may fix. Unit-size instances never hit it:
// every carve lands inside [lb..ub] there, which bounds the block count by
// construction. Lumpy node sizes (multilevel cluster nodes) can make a
// carved set an infeasible exact-packing instance, and then only changing
// the set itself — backtracking — helps.
var errUnpackable = fmt.Errorf("htp: node set does not pack under the branch bound: %w", anytime.ErrNoPartition)

// carveRetries bounds decomposition attempts per vertex. Retries trigger
// only on errUnpackable, so the common (feasible-first-try) path draws the
// same RNG stream as a retry-free builder.
const carveRetries = 4

// block is a fully decomposed subtree, computed before any tree mutation so
// a failed attempt can be discarded and retried. Leaves hold the node set
// (in root-hypergraph IDs); internal blocks hold children.
type block struct {
	orig     []hypergraph.NodeID
	children []*block
}

// place assigns the node set held by sub to tree vertex q: it decomposes
// the set recursively (with retries and backtracking, no tree mutation),
// then materializes the resulting subtree. sub's node v is orig[v] in the
// root hypergraph; d[e] is the metric length of sub's net e.
func (b *builder) place(q int, sub *hypergraph.Hypergraph, orig []hypergraph.NodeID, d []float64) error {
	blk, err := b.decompose(sub, orig, d, b.p.Tree.Level(q))
	if err != nil {
		return err
	}
	b.materialize(q, blk)
	return nil
}

// decompose carves the node set into a block subtree for a vertex at the
// given level, retrying the whole vertex on a packing failure. A child's
// failure (after its own retries) propagates here as errUnpackable and
// triggers a re-carve of this vertex — changing the child's node set is
// exactly what an unpackable child needs. Context errors are never retried.
func (b *builder) decompose(sub *hypergraph.Hypergraph, orig []hypergraph.NodeID, d []float64, level int) (*block, error) {
	if err := b.interrupted(); err != nil {
		return nil, err
	}
	if level == 0 {
		return &block{orig: orig}, nil
	}
	var lastErr error
	for attempt := 0; attempt < carveRetries; attempt++ {
		if attempt > 0 {
			if err := b.interrupted(); err != nil {
				return nil, err
			}
		}
		blk, err := b.tryDecompose(sub, orig, d, level)
		if err == nil {
			return blk, nil
		}
		if !errors.Is(err, errUnpackable) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// tryDecompose runs one carving pass over the vertex: repeatedly separate a
// piece within the size window and decompose it one level down. It copies
// only what a level below reads: a piece that becomes a leaf gets no
// subgraph or metric, a remainder that fits whole is handed down as it is,
// and at level 1 a remainder that fits under C_0 — the last leaf — is not
// built either.
func (b *builder) tryDecompose(sub *hypergraph.Hypergraph, orig []hypergraph.NodeID, d []float64, level int) (*block, error) {
	k := b.spec.Branch[level-1]
	ub := b.spec.Capacity[level-1]
	remaining, remOrig, remD, remSize := sub, orig, d, sub.TotalSize()
	fixedLB := (sub.TotalSize() + int64(k) - 1) / int64(k)
	blk := &block{}
	var inPiece []bool // over remaining's nodes, false between splits

	for slot := 0; len(remOrig) > 0; slot++ {
		if slot == k {
			return nil, fmt.Errorf("htp: %d nodes unplaced after %d blocks at level %d: %w",
				len(remOrig), k, level, errUnpackable)
		}
		if remSize <= ub {
			child, err := b.decompose(remaining, remOrig, remD, level-1)
			if err != nil {
				return nil, err
			}
			blk.children = append(blk.children, child)
			break
		}
		lb := fixedLB
		if !b.opt.FixedLB {
			slotsLeft := int64(k - slot)
			if slotsLeft < 1 {
				slotsLeft = 1
			}
			lb = (remSize + slotsLeft - 1) / slotsLeft
		}
		if lb > ub {
			lb = ub
		}
		piece := b.carve(remaining, remD, lb, ub) // in remaining's IDs
		if len(piece) == 0 {
			// findCut returns nil when no single node fits under ub, and a
			// custom engine may misbehave the same way. Recursing on an empty
			// piece would loop forever with remaining never shrinking.
			return nil, fmt.Errorf("htp: cut engine produced no feasible block at level %d (ub %d): %w",
				level, ub, anytime.ErrOversizedNode)
		}

		pieceOrig := make([]hypergraph.NodeID, len(piece))
		for i, v := range piece {
			pieceOrig[i] = remOrig[v]
		}
		var pieceSub *hypergraph.Hypergraph
		var pieceD []float64
		if level > 1 {
			var pieceNets []hypergraph.NetID
			pieceSub, _, pieceNets = remaining.InducedSubgraph(piece)
			pieceD = project(remD, pieceNets)
		}
		child, err := b.decompose(pieceSub, pieceOrig, pieceD, level-1)
		if err != nil {
			return nil, err
		}
		blk.children = append(blk.children, child)

		if len(piece) == remaining.NumNodes() {
			break
		}
		if inPiece == nil {
			inPiece = make([]bool, remaining.NumNodes())
		}
		for _, v := range piece {
			inPiece[v] = true
		}
		keep := make([]hypergraph.NodeID, 0, remaining.NumNodes()-len(piece))
		keepOrig := make([]hypergraph.NodeID, 0, cap(keep))
		var keepSize int64
		for v := 0; v < remaining.NumNodes(); v++ {
			if !inPiece[v] {
				keep = append(keep, hypergraph.NodeID(v))
				keepOrig = append(keepOrig, remOrig[v])
				keepSize += remaining.NodeSize(hypergraph.NodeID(v))
			}
		}
		for _, v := range piece {
			inPiece[v] = false
		}
		if level == 1 && keepSize <= ub {
			remaining, remD = nil, nil
		} else {
			var keepNets []hypergraph.NetID
			remaining, _, keepNets = remaining.InducedSubgraph(keep)
			remD = project(remD, keepNets)
		}
		remOrig, remSize = keepOrig, keepSize
	}
	return blk, nil
}

// materialize grows the tree under vertex q from a decomposed block and
// assigns leaf nodes.
func (b *builder) materialize(q int, blk *block) {
	if b.p.Tree.Level(q) == 0 {
		for _, v := range blk.orig {
			b.p.Assign(v, q)
		}
		return
	}
	for _, c := range blk.children {
		b.materialize(b.p.Tree.AddChild(q), c)
	}
}

// carve runs the cut engine CarveAttempts times and returns the piece with
// the smallest crossing capacity (ties to the first found).
func (b *builder) carve(sub *hypergraph.Hypergraph, d []float64, lb, ub int64) []hypergraph.NodeID {
	var best []hypergraph.NodeID
	bestCut := 0.0
	in := make([]bool, sub.NumNodes())
	for attempt := 0; attempt < b.opt.CarveAttempts; attempt++ {
		// The first attempt always runs (a carve must produce something for
		// the recursion to report on); extras are skipped once ctx fires.
		if attempt > 0 && b.ctx.Err() != nil {
			break
		}
		piece := b.opt.Engine(sub, d, lb, ub, b.opt.Rng)
		for i := range in {
			in[i] = false
		}
		for _, v := range piece {
			in[v] = true
		}
		cut, _ := sub.CutCapacity(in)
		if best == nil || cut < bestCut {
			best, bestCut = piece, cut
		}
	}
	if b.opt.PolishCuts && len(best) > 0 && len(best) < sub.NumNodes() {
		in := make([]bool, sub.NumNodes())
		for _, v := range best {
			in[v] = true
		}
		fm.RefineBipartitionCtx(b.ctx, sub, in, lb, ub)
		polished := best[:0:0]
		var size int64
		for v := 0; v < sub.NumNodes(); v++ {
			if in[v] {
				polished = append(polished, hypergraph.NodeID(v))
				size += sub.NodeSize(hypergraph.NodeID(v))
			}
		}
		if int64(len(polished)) > 0 && size <= ub {
			best = polished
		}
	}
	return b.topUp(sub, best, lb, ub)
}

// topUp repairs an undershot piece. The engines return a piece below lb
// when lumpy node sizes let every candidate prefix jump the [lb..ub]
// window (unit-size instances never trigger this). place relies on
// piece ≥ lb = ceil(remaining/slots) to bound the child count by K_l, so
// an undershot piece must be padded: nodes are absorbed in index order
// (deterministic), smallest-first among what fits, until the piece
// reaches lb or nothing more fits under ub.
func (b *builder) topUp(sub *hypergraph.Hypergraph, piece []hypergraph.NodeID, lb, ub int64) []hypergraph.NodeID {
	var size int64
	for _, v := range piece {
		size += sub.NodeSize(v)
	}
	if size >= lb || len(piece) == 0 || len(piece) == sub.NumNodes() {
		return piece
	}
	in := make([]bool, sub.NumNodes())
	for _, v := range piece {
		in[v] = true
	}
	// Cancellation may leave the piece undershot: place's child-count check
	// reports it, exactly as it does when the repair gets genuinely stuck.
	for size < lb && b.ctx.Err() == nil {
		best := hypergraph.NodeID(-1)
		for v := 0; v < sub.NumNodes(); v++ {
			id := hypergraph.NodeID(v)
			if in[v] || size+sub.NodeSize(id) > ub {
				continue
			}
			if best < 0 || sub.NodeSize(id) < sub.NodeSize(best) {
				best = id
			}
		}
		if best >= 0 {
			in[best] = true
			piece = append(piece, best)
			size += sub.NodeSize(best)
			continue
		}
		// No single addition fits under ub. Trade a small in-piece node for
		// a larger out-node when the exchange stays inside the window —
		// enough to cross lumpy subset-sum gaps that pure additions cannot.
		var swapIn, swapOut hypergraph.NodeID = -1, -1
		var gain int64
		for i := 0; i < sub.NumNodes(); i++ {
			out := hypergraph.NodeID(i)
			if in[i] {
				continue
			}
			for _, cur := range piece {
				d := sub.NodeSize(out) - sub.NodeSize(cur)
				if d > gain && size+d <= ub {
					swapIn, swapOut, gain = out, cur, d
				}
			}
		}
		if swapIn < 0 {
			break // genuinely stuck; place reports via the child-count check
		}
		in[swapIn], in[swapOut] = true, false
		for i, v := range piece {
			if v == swapOut {
				piece[i] = swapIn
				break
			}
		}
		size += gain
	}
	return piece
}

// project maps parent net lengths onto an induced subgraph's nets.
func project(d []float64, netMap []hypergraph.NetID) []float64 {
	out := make([]float64, len(netMap))
	for i, e := range netMap {
		out[i] = d[e]
	}
	return out
}

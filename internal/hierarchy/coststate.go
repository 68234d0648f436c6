package hierarchy

import (
	"math"
	"slices"

	"repro/internal/hypergraph"
)

// CostState maintains the hierarchical cost of a partition incrementally
// under leaf-to-leaf node moves. It is the bookkeeping behind the paper's
// FM-based iterative improvement ("+"-variants): a move's cost delta is
// computed in O(Σ_{e∋v} levels) without re-evaluating any net from scratch,
// and capacity feasibility is checked along the destination root path.
//
// The tree must not change while a CostState is live.
//
// The span counts are flat. Net e at level l owns a window of
// min(|e|, level-l tree vertices) slots, the most distinct level-l blocks
// its pins can ever touch, so the slots take O(pins × levels) memory
// whatever the tree's width. The window's first win[e*top+l].live slots
// hold a (block, pins of e in it) pair each, in no particular order.
//
// A CostState is an arena: Reset refills it for another partition and
// allocates only where an array is too short, so a V-cycle that Reserves
// it for its finest graph refills it at every level for free.
type CostState struct {
	P   *Partition
	top int // root level

	anc    [][]int32 // anc[leaf] = ancestor vertex at each level 0..top
	ancBuf []int32   // the rows of anc, top+1 per tree vertex
	slots  []spanSlot
	win    []spanWindow // win[e*top+l] = net e's window at level l
	sizes  []int64      // per-vertex assigned size
	cost   float64

	width []int32 // tree vertices per level below top

	// Reset's scratch: at[q] is block q's slot while seen[q] holds 1 + the
	// window being filled.
	seen, at []int32

	// MoveDeltas scratch: stamp[q] == gen marks block q as live in the
	// window being scored.
	stamp []uint32
	gen   uint32
}

type spanSlot struct{ block, count int32 }

// spanWindow locates a window in CostState.slots; live is the number of
// distinct blocks the net touches at that level.
type spanWindow struct{ start, live int32 }

// NewCostState builds the incremental state; every node must be assigned.
func NewCostState(p *Partition) *CostState {
	cs := new(CostState)
	cs.Reset(p)
	return cs
}

// Reserve grows the arena so that Reset refills it without allocating for
// a partition of h, or of any graph contracted from h, on a tree shaped
// like t under spec; the arrays sized by the tree come with the first
// Reset. Contraction never adds nets, and each coarse net has a first fine
// net of its own that is at least as wide, so no level of a V-cycle needs
// more windows or slots than its finest graph.
func (cs *CostState) Reserve(h *hypergraph.Hypergraph, t *Tree, spec Spec) {
	top := cs.shape(t, spec)
	cs.win = slices.Grow(cs.win[:0], h.NumNets()*top)
	cs.slots = slices.Grow(cs.slots[:0], slotCount(h, cs.width))
}

// Reset refills cs for p, reusing its arrays; every node must be
// assigned. It runs the same arithmetic in the same order as a fresh
// state, so the cost is the same float.
func (cs *CostState) Reset(p *Partition) {
	top := cs.shape(p.Tree, p.Spec)
	nv := p.Tree.NumVertices()
	cs.P, cs.cost = p, 0
	cs.anc = zeroed(cs.anc, nv)
	cs.ancBuf = zeroed(cs.ancBuf, nv*(top+1))
	cs.win = zeroed(cs.win, p.H.NumNets()*top)
	cs.sizes = zeroed(cs.sizes, nv)
	for leaf := 0; leaf < nv; leaf++ {
		if !p.Tree.IsLeaf(leaf) {
			continue
		}
		row := cs.ancBuf[leaf*(top+1) : (leaf+1)*(top+1)]
		q := leaf
		for l := 0; l <= top; l++ {
			row[l] = int32(q)
			if l < top {
				q = p.Tree.Parent(q)
			}
		}
		cs.anc[leaf] = row
	}
	for v := 0; v < p.H.NumNodes(); v++ {
		leaf := p.LeafOf[v]
		if leaf < 0 {
			panic("hierarchy: CostState over unassigned node")
		}
		s := p.H.NodeSize(hypergraph.NodeID(v))
		for q := int(leaf); q >= 0; q = p.Tree.Parent(q) {
			cs.sizes[q] += s
		}
	}
	cs.slots = zeroed(cs.slots, slotCount(p.H, cs.width))
	seen, at := zeroed(cs.seen, nv), zeroed(cs.at, nv)
	cs.seen, cs.at = seen, at
	start := 0
	for e := 0; e < p.H.NumNets(); e++ {
		pins := p.H.Pins(hypergraph.NetID(e))
		for l := 0; l < top; l++ {
			idx := e*top + l
			w := &cs.win[idx]
			w.start = int32(start)
			for _, v := range pins {
				b := cs.anc[p.LeafOf[v]][l]
				if seen[b] != int32(idx+1) {
					seen[b] = int32(idx + 1)
					at[b] = w.start + w.live
					cs.slots[at[b]].block = b
					w.live++
				}
				cs.slots[at[b]].count++
			}
			cs.cost += p.Spec.Weight[l] * spanValue(int(w.live)) * p.H.NetCapacity(hypergraph.NetID(e))
			start += min(len(pins), int(cs.width[l]))
		}
	}
	cs.stamp, cs.gen = zeroed(cs.stamp, nv), 0
}

// shape sets the root level and the level widths for tree t under spec,
// and returns the root level.
func (cs *CostState) shape(t *Tree, spec Spec) int {
	cs.top = min(t.Level(t.Root()), spec.Height())
	cs.width = zeroed(cs.width, cs.top)
	for q := 0; q < t.NumVertices(); q++ {
		if l := t.Level(q); l < cs.top {
			cs.width[l]++
		}
	}
	return cs.top
}

// slotCount is the length of the slot array: Σ_e Σ_l min(|e|, width[l]).
func slotCount(h *hypergraph.Hypergraph, width []int32) int {
	total := 0
	for e := 0; e < h.NumNets(); e++ {
		card := len(h.Pins(hypergraph.NetID(e)))
		for _, w := range width {
			total += min(card, int(w))
		}
	}
	if total > math.MaxInt32 {
		panic("hierarchy: CostState span windows exceed int32 offsets")
	}
	return total
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

func spanValue(blocks int) float64 {
	if blocks <= 1 {
		return 0
	}
	return float64(blocks)
}

// Cost returns the current total interconnection cost.
func (cs *CostState) Cost() float64 { return cs.cost }

// TopLevel returns the number of levels with cost contributions.
func (cs *CostState) TopLevel() int { return cs.top }

// BlockSize returns the size currently assigned to tree vertex q.
func (cs *CostState) BlockSize(q int) int64 { return cs.sizes[q] }

// divergeLevel returns the lowest level at which the two leaves share an
// ancestor; levels below it differ.
func (cs *CostState) divergeLevel(a, b int32) int {
	ra, rb := cs.anc[a], cs.anc[b]
	for l := 0; l <= cs.top; l++ {
		if ra[l] == rb[l] {
			return l
		}
	}
	return cs.top
}

// MoveDelta returns the cost change of moving node v to leaf toLeaf
// (negative is an improvement). Moving to the current leaf returns 0.
func (cs *CostState) MoveDelta(v hypergraph.NodeID, toLeaf int) float64 {
	from := cs.P.LeafOf[v]
	to := int32(toLeaf)
	if from == to {
		return 0
	}
	lca := cs.divergeLevel(from, to)
	var delta float64
	for _, e := range cs.P.H.Incident(v) {
		c := cs.P.H.NetCapacity(e)
		for l := 0; l < lca; l++ {
			a, b := cs.anc[from][l], cs.anc[to][l]
			if a == b {
				continue
			}
			live := cs.live(int(e)*cs.top + l)
			old := len(live)
			now := old
			if live[slotOf(live, a)].count == 1 {
				now--
			}
			if slotOf(live, b) < 0 {
				now++
			}
			// The explicit conversion rounds the term before the sum, so a
			// fused multiply-add cannot make it differ from MoveDeltas'.
			delta += float64(cs.P.Spec.Weight[l] * c * (spanValue(now) - spanValue(old)))
		}
	}
	return delta
}

// CanImprove reports whether some move of v could lower the cost. A
// MoveDelta term is negative only where v is the sole pin of net e in its
// level-l block and e spans two or more level-l blocks. At any higher level
// v's block holds at least as many pins of e, and e spans no more blocks, so
// level 0 decides: when no net of v passes there, weights and capacities are
// non-negative and spanValue never decreases, so every MoveDelta(v, ·) is
// ≥ 0. A root-only tree (top 0) has no level to move across.
func (cs *CostState) CanImprove(v hypergraph.NodeID) bool {
	if cs.top == 0 {
		return false
	}
	from := cs.P.LeafOf[v]
	for _, e := range cs.P.H.Incident(v) {
		live := cs.live(int(e) * cs.top)
		if len(live) >= 2 && live[slotOf(live, from)].count == 1 {
			return true
		}
	}
	return false
}

// MoveDeltas sets delta[i] to MoveDelta(v, to[i]) for every candidate leaf,
// bit for bit, in one sweep over v's nets and levels: each (net, level)
// window is scanned at most once, and each candidate's terms are added in
// MoveDelta's order (net, then level). A scan stamps the window's blocks,
// so each candidate's block is one lookup. Two facts skip parts of a scan:
// a window holding every level-l block holds each candidate's, and once v
// shares its block with another pin of the net, it does at every higher
// level too. delta must be as long as to. The scratch lives in cs, so
// calls must not overlap.
func (cs *CostState) MoveDeltas(v hypergraph.NodeID, to []int32, delta []float64) {
	from := cs.P.LeafOf[v]
	depth := 0
	for i, t := range to {
		depth = max(depth, cs.divergeLevel(from, t))
		delta[i] = 0
	}
	stamp, gen := cs.stamp, cs.gen
	ra, w := cs.anc[from], cs.P.Spec.Weight
	for _, e := range cs.P.H.Incident(v) {
		c := cs.P.H.NetCapacity(e)
		shared := false // another pin of e sits in v's block
		for l := 0; l < depth; l++ {
			live := cs.live(int(e)*cs.top + l)
			old := len(live)
			full := old == int(cs.width[l])
			if !full {
				if gen++; gen == 0 {
					clear(stamp)
					gen = 1
				}
				for _, s := range live {
					stamp[s.block] = gen
				}
			}
			if !shared {
				shared = live[slotOf(live, ra[l])].count > 1
			}
			// v's leaving drops its block unless shared; a candidate's block
			// that holds no pin of e is one more. The explicit conversion
			// rounds each term as MoveDelta's does.
			now := old
			if !shared {
				now--
			}
			wc := w[l] * c
			in := float64(wc * (spanValue(now) - spanValue(old)))
			out := float64(wc * (spanValue(now+1) - spanValue(old)))
			for i, t := range to {
				b := cs.anc[t][l]
				if b == ra[l] {
					continue // at or above t's diverge level, as in MoveDelta
				}
				if full || stamp[b] == gen {
					delta[i] += in
				} else {
					delta[i] += out
				}
			}
		}
	}
	cs.gen = gen
}

// live returns the live slots of window idx.
func (cs *CostState) live(idx int) []spanSlot {
	w := cs.win[idx]
	return cs.slots[w.start : w.start+w.live]
}

// CanMove reports whether moving v to toLeaf respects all capacities on the
// destination root path (only levels below the diverge point gain size).
func (cs *CostState) CanMove(v hypergraph.NodeID, toLeaf int) bool {
	from := cs.P.LeafOf[v]
	to := int32(toLeaf)
	if from == to {
		return true
	}
	lca := cs.divergeLevel(from, to)
	s := cs.P.H.NodeSize(v)
	for l := 0; l < lca && l < cs.P.Spec.Height(); l++ {
		q := cs.anc[to][l]
		if cs.sizes[q]+s > cs.P.Spec.Capacity[l] {
			return false
		}
	}
	return true
}

// Apply moves v to toLeaf, updating the assignment, sizes, span counts, and
// cost. It returns the realized cost delta (equal to MoveDelta beforehand).
func (cs *CostState) Apply(v hypergraph.NodeID, toLeaf int) float64 {
	from := cs.P.LeafOf[v]
	to := int32(toLeaf)
	if from == to {
		return 0
	}
	lca := cs.divergeLevel(from, to)
	var delta float64
	for _, e := range cs.P.H.Incident(v) {
		c := cs.P.H.NetCapacity(e)
		for l := 0; l < lca; l++ {
			a, b := cs.anc[from][l], cs.anc[to][l]
			if a == b {
				continue
			}
			idx := int(e)*cs.top + l
			live := cs.live(idx)
			old := len(live)
			// Take v's pin out of block a first, so the window never holds
			// more blocks than it has slots.
			i := slotOf(live, a)
			live[i].count--
			if live[i].count == 0 {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if j := slotOf(live, b); j >= 0 {
				live[j].count++
			} else {
				live = live[:len(live)+1]
				live[len(live)-1] = spanSlot{block: b, count: 1}
			}
			cs.win[idx].live = int32(len(live))
			delta += float64(cs.P.Spec.Weight[l] * c * (spanValue(len(live)) - spanValue(old)))
		}
	}
	s := cs.P.H.NodeSize(v)
	for l := 0; l < lca; l++ {
		cs.sizes[cs.anc[from][l]] -= s
		cs.sizes[cs.anc[to][l]] += s
	}
	cs.P.LeafOf[v] = to
	cs.cost += delta
	return delta
}

// slotOf returns the index of block b among the live slots, or -1.
func slotOf(live []spanSlot, b int32) int {
	for i, s := range live {
		if s.block == b {
			return i
		}
	}
	return -1
}

package fm

import (
	"slices"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
)

// mover is the move selection both hierarchical refiners share. For a node
// v it returns the move the textbook K-way FM loop would: collect the leaves
// holding other pins of v's nets in discovery order, keep those CanMove
// allows, and take the lowest MoveDelta below −1e-12, the first found on
// ties. It does only the work that can change that answer:
//
//   - a node CanImprove rules out is skipped before any scan, since no move
//     of it has a negative delta;
//   - the pin scan stops once every other leaf has been seen (a leaf
//     CanMove rejects counts as seen): later pins can only name leaves the
//     loop would skip;
//   - the surviving candidates are scored in one sweep (CostState.MoveDeltas),
//     bit for bit the deltas MoveDelta returns.
//
// Heuer's split of the Steiner-tree gain into a from-side benefit and a
// to-side penalty (arXiv:2309.16694) is the skip test: a node whose
// from-side benefit is zero has no improving move.
type mover struct {
	cs         *hierarchy.CostState
	maxNetScan int      // nets with more pins are not scanned for candidates
	others     int      // leaves other than the node's own
	seen       []uint32 // seen[leaf] == gen: leaf already found this visit
	gen        uint32
	cands      []int32
	deltas     []float64
}

func newMover(cs *hierarchy.CostState, maxNetScan int) *mover {
	m := new(mover)
	m.reset(cs, maxNetScan)
	return m
}

// reset readies m for cs, reusing its arrays.
func (m *mover) reset(cs *hierarchy.CostState, maxNetScan int) {
	t := cs.P.Tree
	leaves := 0
	for q := 0; q < t.NumVertices(); q++ {
		if t.IsLeaf(q) {
			leaves++
		}
	}
	m.cs, m.maxNetScan, m.others = cs, maxNetScan, max(leaves-1, 0)
	m.seen, m.gen = zeroed(m.seen, t.NumVertices()), 0
	m.cands = slices.Grow(m.cands[:0], m.others)
	m.deltas = zeroed(m.deltas, m.others)
}

// best returns v's best improving move and its MoveDelta, or leaf -1 when no
// capacity-feasible candidate lowers the cost by more than 1e-12.
func (m *mover) best(v hypergraph.NodeID) (leaf int, delta float64) {
	cs, p := m.cs, m.cs.P
	if !cs.CanImprove(v) {
		return -1, 0
	}
	if m.gen++; m.gen == 0 {
		clear(m.seen)
		m.gen = 1
	}
	from := p.LeafOf[v]
	cands := m.cands[:0]
	found := 0
scan:
	for _, e := range p.H.Incident(v) {
		pins := p.H.Pins(e)
		if len(pins) > m.maxNetScan {
			continue
		}
		for _, u := range pins {
			l := p.LeafOf[u]
			if l == from || m.seen[l] == m.gen {
				continue
			}
			m.seen[l] = m.gen
			if cs.CanMove(v, int(l)) {
				cands = append(cands, l)
			}
			if found++; found == m.others {
				break scan
			}
		}
	}
	if len(cands) == 0 {
		return -1, 0
	}
	deltas := m.deltas[:len(cands)]
	cs.MoveDeltas(v, cands, deltas)
	leaf, delta = -1, -1e-12
	for i, d := range deltas {
		if d < delta {
			leaf, delta = int(cands[i]), d
		}
	}
	if leaf < 0 {
		return -1, 0
	}
	return leaf, delta
}

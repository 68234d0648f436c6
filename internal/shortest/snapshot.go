package shortest

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/hypergraph"
)

// LengthSnapshot lists every node's incidence positions in order of
// increasing length, under net lengths taken once, so that Grow can read a
// settled node's nets shortest first and stop at the first one that cannot
// beat its frontier (see UseSnapshot).
//
// A snapshot is exact for any later lengths it lower-bounds: every net's
// length must be at least its snapshot length, and every snapshot length
// must be non-negative. Non-negative lengths that only grow from the moment
// of the snapshot, as Algorithm 2's do, satisfy this.
//
// It holds 12 B per incidence entry (a float64 length and an int32
// position) and is bound to one hypergraph.
type LengthSnapshot struct {
	h *hypergraph.Hypergraph
	// lens[k] and pos[k], for k in node v's incidence range, are the
	// snapshot length of the net at position pos[k] of v's incidence list;
	// within each range lens is non-decreasing.
	lens   []float64
	pos    []int32
	maxDeg int
}

// NewLengthSnapshot returns a snapshot of h whose lengths are all zero,
// which bounds any non-negative lengths but stops no walk; Refresh takes
// real ones.
func NewLengthSnapshot(h *hypergraph.Hypergraph) *LengthSnapshot {
	incOff, incident := h.IncidenceArena()
	ls := &LengthSnapshot{
		h:    h,
		lens: make([]float64, len(incident)),
		pos:  make([]int32, len(incident)),
	}
	for v := 0; v+1 < len(incOff); v++ {
		lo, hi := incOff[v], incOff[v+1]
		for k := lo; k < hi; k++ {
			ls.pos[k] = k - lo
		}
		ls.maxDeg = max(ls.maxDeg, int(hi-lo))
	}
	return ls
}

// Refresh takes lengths[e] as every net's snapshot length and re-sorts each
// node's positions by it with an insertion sort from the previous order
// (incidence order before the first refresh). Its work is the arena plus
// the pairs of nets whose order the new lengths swap, few when lengths
// changed little since the last refresh. A node whose insertion sort would
// move more than log2 of its degree entries per entry is sorted by
// comparison instead, so no refresh costs more than O(d log d) per node of
// degree d. The order among equal lengths is free: walks cut the range by
// length and hand out nets in incidence order.
func (ls *LengthSnapshot) Refresh(lengths []float64) {
	incOff, incident := ls.h.IncidenceArena()
	for v := 0; v+1 < len(incOff); v++ {
		lo, hi := incOff[v], incOff[v+1]
		inc, lens, pos := incident[lo:hi], ls.lens[lo:hi], ls.pos[lo:hi]
		for k, p := range pos {
			lens[k] = lengths[inc[p]]
		}
		if insertionSort(lens, pos, len(lens)*bits.Len(uint(len(lens)))) {
			continue
		}
		slices.SortFunc(pos, func(a, b int32) int {
			return cmp.Compare(lengths[inc[a]], lengths[inc[b]])
		})
		for k, p := range pos {
			lens[k] = lengths[inc[p]]
		}
	}
}

// insertionSort sorts lens into non-decreasing order, moving pos along
// with it, and reports true, unless that takes more than budget moves: it
// then stops with lens and pos still paired, and reports false.
func insertionSort(lens []float64, pos []int32, budget int) bool {
	for k := 1; k < len(lens); k++ {
		l, p := lens[k], pos[k]
		j := k
		for ; j > 0 && lens[j-1] > l; j-- {
			lens[j], pos[j] = lens[j-1], pos[j-1]
		}
		lens[j], pos[j] = l, p
		if budget -= k - j; budget < 0 {
			return false
		}
	}
	return true
}

// UseSnapshot makes Grow read incidence by length from ls once a growth's
// ceiling is finite; nil restores the whole scan. ls must belong to the
// grower's hypergraph and lower-bound the lengths of every later growth
// (see LengthSnapshot); it is read, never written, so growers may share it
// while nobody refreshes it.
//
// It is exact: Grow makes the same heap operations in the same order, and
// so reports the same visits, as without a snapshot. A net of a settled
// node v that the walk leaves out has dv + len(e) ≥ dv + snap(e) ≥ ceil
// (float addition is monotone), so the whole scan would have marked it and
// skipped it. Its later pins settle no nearer than v while the ceiling only
// falls, so none of them walks it either. The nets walked go to the
// relaxation loop in incidence order, as the whole scan would visit them.
func (s *HyperSPT) UseSnapshot(ls *LengthSnapshot) {
	if ls == nil {
		s.walker = nil
		return
	}
	if ls.h != s.h {
		panic("shortest: UseSnapshot of another hypergraph's snapshot")
	}
	if s.walker == nil || len(s.walker.marks)*64 < ls.maxDeg {
		s.walker = &walker{
			marks:  make([]uint64, (ls.maxDeg+63)/64),
			walked: make([]hypergraph.NetID, 0, ls.maxDeg),
		}
	}
	s.walker.snap = ls
}

// TakeScans returns the number of incidence entries that growths have
// read under a finite ceiling since the last call, and restarts the count.
// Entries a snapshot walk stops before are not read.
func (s *HyperSPT) TakeScans() int {
	n := s.scans
	s.scans = 0
	return n
}

// walker is the scratch of one grower's walks over a length snapshot.
type walker struct {
	snap   *LengthSnapshot
	marks  []uint64           // a bitmap over one node's incidence positions
	walked []hypergraph.NetID // the nets a walk hands to the relaxation loop
}

// walk returns nets of v's incidence list for the relaxation loop, in
// incidence order: those whose snapshot offer dv + snap(e) is below ceil,
// or the whole list when they are more than half of it. The offers rise
// along v's snapshot range (float addition is monotone), so the nets below
// ceil are a prefix of it, found by binary search. Their positions go
// through a bitmap to come out in incidence order, at a few operations per
// net; handing over the whole list instead costs the loop one mark read
// per net the walk would have skipped, so the walk keeps the cheaper.
func (wk *walker) walk(v hypergraph.NodeID, dv, ceil float64) []hypergraph.NetID {
	incOff, incident := wk.snap.h.IncidenceArena()
	lo, hi := incOff[v], incOff[v+1]
	inc, lens := incident[lo:hi], wk.snap.lens[lo:hi]
	k, top := 0, len(lens)
	for k < top {
		if m := int(uint(k+top) >> 1); dv+lens[m] < ceil {
			k = m + 1
		} else {
			top = m
		}
	}
	if 2*k > len(inc) {
		return inc
	}
	marks := wk.marks
	for _, p := range wk.snap.pos[lo : int(lo)+k] {
		marks[p>>6] |= 1 << (p & 63)
	}
	out := wk.walked[:0]
	for w := range marks[:(len(inc)+63)>>6] {
		for b := marks[w]; b != 0; b &= b - 1 {
			out = append(out, inc[w<<6+bits.TrailingZeros64(b)])
		}
		marks[w] = 0
	}
	return out
}

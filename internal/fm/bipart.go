// Package fm implements Fiduccia-Mattheyses-style iterative improvement:
// classic two-way FM on hypergraphs (the cut engine inside the GFM and RFM
// baselines of Kuo, Liu & Cheng DAC'96), recursive-bisection multiway
// partitioning, and the hierarchical refinement pass that produces the
// paper's "+" variants (GFM+, RFM+, FLOW+).
package fm

import (
	"context"
	"math/rand"

	"repro/internal/hypergraph"
	"repro/internal/pqueue"
)

// BiOptions tunes RefineBipartitionCtx. Its pass budget is the constant
// maxBiPasses (16), not an option.
type BiOptions struct {
	// Rng drives tie-breaking move order. Defaults to a fixed seed.
	Rng *rand.Rand
}

// maxBiPasses bounds RefineBipartitionCtx's FM passes; each pass moves
// every free node once and rolls back to the best prefix.
const maxBiPasses = 16

func (o BiOptions) withDefaults() BiOptions {
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// bistate carries the incremental FM bookkeeping for one bipartition.
type bistate struct {
	h      *hypergraph.Hypergraph
	inA    []bool
	locked []bool
	gain   []float64
	nA, nB []int32 // per-net pin counts on each side
	sizeA  int64
	cut    float64
	heapA  *pqueue.IndexedMinHeap // nodes in A (candidates to move A->B), key = -gain
	heapB  *pqueue.IndexedMinHeap
}

func newBistate(h *hypergraph.Hypergraph, inA []bool) *bistate {
	n, m := h.NumNodes(), h.NumNets()
	s := &bistate{
		h:      h,
		inA:    inA,
		locked: make([]bool, n),
		gain:   make([]float64, n),
		nA:     make([]int32, m),
		nB:     make([]int32, m),
		heapA:  pqueue.New(n),
		heapB:  pqueue.New(n),
	}
	for v := 0; v < n; v++ {
		if inA[v] {
			s.sizeA += h.NodeSize(hypergraph.NodeID(v))
		}
	}
	for e := 0; e < m; e++ {
		for _, v := range h.Pins(hypergraph.NetID(e)) {
			if inA[v] {
				s.nA[e]++
			} else {
				s.nB[e]++
			}
		}
		if s.nA[e] > 0 && s.nB[e] > 0 {
			s.cut += h.NetCapacity(hypergraph.NetID(e))
		}
	}
	for v := 0; v < n; v++ {
		s.gain[v] = s.initialGain(hypergraph.NodeID(v))
	}
	return s
}

// initialGain computes the FM gain of moving v to the other side: +c for
// every net that would become uncut, -c for every net that would become cut.
func (s *bistate) initialGain(v hypergraph.NodeID) float64 {
	var g float64
	for _, e := range s.h.Incident(v) {
		c := s.h.NetCapacity(e)
		from, to := s.nA[e], s.nB[e]
		if !s.inA[v] {
			from, to = to, from
		}
		if from == 1 {
			g += c // v is the last pin on its side: the net uncuts
		}
		if to == 0 {
			g -= c // net currently internal: moving v cuts it
		}
	}
	return g
}

func (s *bistate) heapOf(v int) *pqueue.IndexedMinHeap {
	if s.inA[v] {
		return s.heapA
	}
	return s.heapB
}

func (s *bistate) pushAll() {
	s.heapA.Reset()
	s.heapB.Reset()
	for v := 0; v < len(s.inA); v++ {
		if !s.locked[v] {
			s.heapOf(v).Push(v, -s.gain[v])
		}
	}
}

func (s *bistate) updateGain(v hypergraph.NodeID, delta float64) {
	s.gain[v] += delta
	if !s.locked[v] {
		h := s.heapOf(int(v))
		if h.Contains(int(v)) {
			h.Remove(int(v))
		}
		h.Push(int(v), -s.gain[v])
	}
}

// move applies the classic FM move-and-update to v (which must be unlocked)
// and locks it. Returns the realized cut delta (-gain).
func (s *bistate) move(v hypergraph.NodeID) float64 {
	fromA := s.inA[v]
	realized := -s.gain[v]
	s.locked[v] = true
	if h := s.heapOf(int(v)); h.Contains(int(v)) {
		h.Remove(int(v))
	}
	for _, e := range s.h.Incident(v) {
		c := s.h.NetCapacity(e)
		var from, to *int32
		if fromA {
			from, to = &s.nA[e], &s.nB[e]
		} else {
			from, to = &s.nB[e], &s.nA[e]
		}
		pins := s.h.Pins(e)
		// Before-move checks on the destination side.
		if *to == 0 {
			for _, u := range pins {
				if u != v && !s.locked[u] {
					s.updateGain(u, +c)
				}
			}
		} else if *to == 1 {
			for _, u := range pins {
				if u != v && !s.locked[u] && s.inA[u] != fromA {
					s.updateGain(u, -c)
				}
			}
		}
		*from--
		*to++
		// After-move checks on the origin side.
		if *from == 0 {
			for _, u := range pins {
				if u != v && !s.locked[u] {
					s.updateGain(u, -c)
				}
			}
		} else if *from == 1 {
			for _, u := range pins {
				if u != v && !s.locked[u] && s.inA[u] == fromA {
					s.updateGain(u, +c)
				}
			}
		}
	}
	if fromA {
		s.sizeA -= s.h.NodeSize(v)
	} else {
		s.sizeA += s.h.NodeSize(v)
	}
	s.inA[v] = !fromA
	s.cut += realized
	return realized
}

// RefineBipartitionCtx improves an initial bipartition inA in place with FM
// passes, keeping s(A) within [lbA..ubA] after every applied move prefix.
// The initial assignment must itself satisfy the window. It returns the
// final cut capacity. Cancellation is polled between passes and every 256
// moves within a pass; an interrupted pass still rolls back to its best
// applied prefix, so inA is always a valid bipartition inside the window.
// If cancellation lands before any pass runs, inA is untouched and the
// returned cut is 0.
func RefineBipartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, inA []bool, lbA, ubA int64, opt BiOptions) float64 {
	opt = opt.withDefaults()
	var finalCut float64
	for pass := 0; pass < maxBiPasses && ctx.Err() == nil; pass++ {
		s := newBistate(h, inA)
		startCut := s.cut
		s.pushAll()

		type rec struct {
			v hypergraph.NodeID
		}
		var (
			history []rec
			bestCut = s.cut
			bestLen = 0
			curCut  = s.cut
		)
		for {
			if len(history)&255 == 255 && ctx.Err() != nil {
				break
			}
			v, ok := s.bestFeasibleMove(lbA, ubA)
			if !ok {
				break
			}
			curCut += s.move(v)
			history = append(history, rec{v})
			if curCut < bestCut-1e-12 {
				bestCut = curCut
				bestLen = len(history)
			}
		}
		// Roll back to the best prefix.
		for i := len(history) - 1; i >= bestLen; i-- {
			v := history[i].v
			inA[v] = !inA[v]
		}
		finalCut = bestCut
		if bestCut >= startCut-1e-12 {
			break // no improvement this pass
		}
	}
	return finalCut
}

// bestFeasibleMove picks the unlocked node with maximum gain whose move
// keeps the balance window, preferring the side whose top gain is higher.
func (s *bistate) bestFeasibleMove(lbA, ubA int64) (hypergraph.NodeID, bool) {
	pop := func(h *pqueue.IndexedMinHeap, fromA bool) (hypergraph.NodeID, bool) {
		//htpvet:allow ctxpoll -- every iteration pops and locks a heap node, so the loop consumes at most the heap's content across a whole pass; the caller's move loop polls ctx every 256 moves
		for h.Len() > 0 {
			vi, _ := h.Peek()
			v := hypergraph.NodeID(vi)
			var newSizeA int64
			if fromA {
				newSizeA = s.sizeA - s.h.NodeSize(v)
			} else {
				newSizeA = s.sizeA + s.h.NodeSize(v)
			}
			if newSizeA < lbA || newSizeA > ubA {
				h.Pop() // infeasible at current balance: discard for this pass
				s.locked[vi] = true
				continue
			}
			return v, true
		}
		return 0, false
	}
	var (
		candA, candB hypergraph.NodeID
		okA, okB     bool
	)
	candA, okA = pop(s.heapA, true)
	candB, okB = pop(s.heapB, false)
	switch {
	case okA && okB:
		if s.gain[candA] >= s.gain[candB] {
			return candA, true
		}
		return candB, true
	case okA:
		return candA, true
	case okB:
		return candB, true
	}
	return 0, false
}

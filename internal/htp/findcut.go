// Package htp implements the hierarchical tree partitioning algorithms of
// Kuo & Cheng (DAC'97): the constructive network-flow algorithm FLOW
// (Algorithm 1 = spreading-metric computation + metric-guided top-down
// construction), the top-down builder with its Prim-style find_cut
// (Algorithm 3), and the two DAC'96 baselines it is compared against —
// GFM (bottom-up) and RFM (top-down with FM min-cut) — plus the FM-refined
// "+" variants and a brute-force oracle for tiny instances.
package htp

import (
	"math"
	"math/rand"

	"repro/internal/hypergraph"
	"repro/internal/pqueue"
)

// cutScratch is find_cut's working memory, kept across the calls of one
// construction: BuildCtx installs a fresh scratch's findCut as its default
// engine, and every carve reuses the buffers sized by the first (largest)
// call. A reset heap is in the state New leaves it in, so reuse cannot
// change a partition.
type cutScratch struct {
	in    []bool
	cnt   []int32
	heap  *pqueue.IndexedMinHeap
	order []hypergraph.NodeID
}

// reset readies the buffers for a hypergraph of n nodes and nets nets.
func (s *cutScratch) reset(n, nets int) {
	if cap(s.in) < n {
		s.in = make([]bool, n)
		s.heap = pqueue.New(n)
		s.order = make([]hypergraph.NodeID, 0, n)
	} else {
		s.in = s.in[:n]
		clear(s.in)
		s.heap.Reset()
	}
	if cap(s.cnt) < nets {
		s.cnt = make([]int32, nets)
	} else {
		s.cnt = s.cnt[:nets]
		clear(s.cnt)
	}
}

// findCut separates a node set of size within [lb..ub] from h, growing a
// region from a random seed in Prim order under the net lengths d (short
// nets are absorbed first, so the growth frontier tends to follow long —
// i.e. congested, cut-worthy — nets), and returning the visited prefix with
// the minimum crossing capacity among those inside the window (procedure
// find_cut of Algorithm 3).
//
// ub is a hard bound: no returned set exceeds it. If no prefix lands inside
// the window (possible with lumpy node sizes), the largest prefix not
// exceeding ub is returned. If the graph is disconnected the growth restarts
// on a fresh component. If a drawn seed is itself larger than ub the growth
// reseeds on the next node (by index) that fits; nil is returned when every
// node exceeds ub, since no non-empty subset can respect the bound. d is
// indexed by net.
func (s *cutScratch) findCut(h *hypergraph.Hypergraph, d []float64, lb, ub int64, rng *rand.Rand) []hypergraph.NodeID {
	n := h.NumNodes()
	if n == 0 {
		return nil
	}
	s.reset(n, h.NumNets())
	in, cnt, heap := s.in, s.cnt, s.heap
	order := s.order[:0]

	var (
		size    int64
		cut     float64
		bestCut = math.Inf(1)
		bestLen = 0
		lastLen = 0 // largest prefix with size <= ub (fallback)
	)

	add := func(v hypergraph.NodeID) {
		in[v] = true
		order = append(order, v)
		size += h.NodeSize(v)
		for _, e := range h.Incident(v) {
			card := int32(len(h.Pins(e)))
			before := cnt[e] > 0 && cnt[e] < card
			cnt[e]++
			after := cnt[e] > 0 && cnt[e] < card
			if before != after {
				if after {
					cut += h.NetCapacity(e)
				} else {
					cut -= h.NetCapacity(e)
				}
			}
			// Relax the frontier through this net.
			for _, u := range h.Pins(e) {
				if !in[u] {
					heap.PushOrDecrease(int(u), d[e])
				}
			}
		}
	}

	seed := hypergraph.NodeID(rng.Intn(n))
	if h.NodeSize(seed) > ub {
		// The drawn node alone violates the hard bound; the old fallback
		// would have returned it anyway as a C_0-violating singleton. Reseed
		// deterministically on the next node (by index) that fits — the RNG
		// stream still advances by exactly one draw, so seeds that already
		// fit are unaffected. If nothing fits, no feasible block exists.
		reseeded := false
		for off := 1; off < n; off++ {
			v := hypergraph.NodeID((int(seed) + off) % n)
			if h.NodeSize(v) <= ub {
				seed, reseeded = v, true
				break
			}
		}
		if !reseeded {
			return nil
		}
	}
	add(seed)
	for size < ub {
		var next hypergraph.NodeID
		if heap.Len() > 0 {
			vi, _ := heap.Pop()
			if in[vi] {
				continue
			}
			next = hypergraph.NodeID(vi)
		} else {
			// Disconnected: restart from any unvisited node.
			next = hypergraph.NodeID(-1)
			for v := 0; v < n; v++ {
				if !in[v] {
					next = hypergraph.NodeID(v)
					break
				}
			}
			if next < 0 {
				break
			}
		}
		if size+h.NodeSize(next) > ub {
			// Adding would overshoot the hard bound; skip this node and let
			// the frontier offer alternatives. (With the heap popped the
			// node may return via another net; that is fine — it stays out
			// only if everything overshoots.)
			if heap.Len() == 0 {
				break
			}
			continue
		}
		add(next)
		if size >= lb && size <= ub && cut < bestCut {
			bestCut = cut
			bestLen = len(order)
		}
		if size <= ub {
			lastLen = len(order)
		}
	}
	if bestLen == 0 {
		bestLen = lastLen
		if bestLen == 0 {
			bestLen = 1 // at least the seed, guaranteed <= ub by the reseed
		}
	}
	return append([]hypergraph.NodeID(nil), order[:bestLen]...)
}

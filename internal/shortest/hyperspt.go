// Package shortest grows shortest-path trees over hypergraphs in order of
// increasing distance from a root: the primitive behind the separation of
// spreading constraints in Kuo & Cheng's Algorithm 2. HyperSPT.Grow reports
// every settled node with the net and pin that reached it; HyperSPT.Settle
// settles the same distances for callers that need nothing else, queueing
// nets instead of nodes.
package shortest

import (
	"math"

	"repro/internal/hypergraph"
	"repro/internal/pqueue"
)

// HyperSPT grows shortest-path trees over a hypergraph under a per-net
// length function: traversing from any pin of net e to any other pin costs
// length(e). This is the hypergraph extension of the paper's S(v,k) trees —
// nodes are settled in increasing distance from the root.
//
// It offers two passes over the same workspaces, which settle the same
// distances:
//
//   - Grow records the tree: for every settled node, the net that connected
//     it (its "shortest connecting edge") and the pin it came from. Its
//     frontier is an indexed binary heap, so ties settle in one fixed
//     order. Lengths may be finite values of either sign.
//   - Settle reports only (node, distance). Its frontier is a radix heap
//     of nets: each reached net is pushed once, with its only useful
//     offer, and its pins are read only when it pops. Ties may settle in
//     another order than Grow's, but the distance sequence is the same,
//     bit for bit. Lengths must be finite and non-negative.
//
// The struct owns reusable workspaces so that Algorithm 2, which grows trees
// from every node over many rounds, allocates nothing per growth after the
// first. Pins and incidence are read straight from the hypergraph's CSR
// arenas.
type HyperSPT struct {
	h *hypergraph.Hypergraph

	// key[v] is +Inf while v is untouched, its tentative distance while it
	// waits in Grow's frontier, and -Inf once settled, so `nd < key[u]` is
	// the whole relaxation test for any finite offer nd. Settle's frontier
	// holds nets, so it only ever sets -Inf.
	key    []float64
	via    []hypergraph.NetID  // net that reached v; -1 for the root
	parent []hypergraph.NodeID // pin of via already in the tree; -1 for the root

	netGen []uint32
	gen    uint32
	heap   *pqueue.IndexedMinHeap // Grow's frontier
	radix  netQueue               // Settle's frontier, allocated by the first Settle
	touch  []hypergraph.NodeID    // nodes whose key must be reset before the next growth

	walker *walker // nil: every settled node reads its whole incidence list
	scans  int     // incidence entries read under a finite ceiling, for TakeScans
}

// Visit describes one settled node during SPT growth.
type Visit struct {
	Node   hypergraph.NodeID
	Dist   float64
	Via    hypergraph.NetID  // connecting net, -1 for the root
	Parent hypergraph.NodeID // tree predecessor, -1 for the root
}

// NewHyperSPT returns a grower bound to h.
func NewHyperSPT(h *hypergraph.Hypergraph) *HyperSPT {
	n := h.NumNodes()
	s := &HyperSPT{
		h:      h,
		key:    make([]float64, n),
		via:    make([]hypergraph.NetID, n),
		parent: make([]hypergraph.NodeID, n),
		netGen: make([]uint32, h.NumNets()),
		heap:   pqueue.New(n),
	}
	for v := range s.key {
		s.key[v] = math.Inf(1)
	}
	return s
}

// Grow runs Dijkstra from root with net e's length given by lengths[e],
// invoking visit for every settled node in increasing distance order (the
// root first, at distance 0). Growth stops when visit returns false, when
// all reachable nodes are settled, or never reaches unreachable components.
// It returns the number of settled nodes.
//
// lengths must hold one finite entry per net, and stay unmodified for the
// duration of the call. Negative entries are accepted: the growth is then
// no longer a shortest-path computation, but it stays deterministic and
// never revisits a settled node. With a length snapshot (UseSnapshot),
// lengths must be at least the snapshot's, entry by entry; the visits are
// the same as without it.
func (s *HyperSPT) Grow(root hypergraph.NodeID, lengths []float64, visit func(Visit) bool) int {
	s.reset()
	s.gen++
	key, via, parent := s.key, s.via, s.parent
	netGen, gen, heap := s.netGen, s.gen, s.heap
	incOff, incident := s.h.IncidenceArena()
	pinOff, pins := s.h.PinArena()
	n := len(key)
	inf, settledKey := math.Inf(1), math.Inf(-1)
	key[root], via[root], parent[root] = 0, -1, -1
	s.touch = append(s.touch, root)
	heap.Push(int(root), 0)

	// Once every node is touched no push can happen and keys only fall, so
	// a largest heap key taken at any earlier point still bounds every key
	// in the heap: a net whose offer reaches ceil improves no pin, and its
	// pins are not read. ceil is first taken when the last node is touched
	// (ceilLen starts above any 2·Len) and re-taken only once the heap has
	// halved since, so the O(Len) scans sum to at most 2n per growth.
	// With a snapshot, a node settled under a finite ceil reads only the
	// nets whose snapshot offer is below it (see UseSnapshot).
	ceil, ceilLen := inf, 2*n+2
	settled := 0
	//htpvet:allow ctxpoll -- each iteration settles a node, so the loop is bounded by reached nodes; cancellation is the callers' visit callback returning false (inject polls ctx there with a masked counter)
	for heap.Len() > 0 {
		vi, dv := heap.Pop()
		key[vi] = settledKey
		settled++
		if !visit(Visit{Node: hypergraph.NodeID(vi), Dist: dv, Via: via[vi], Parent: parent[vi]}) {
			break
		}
		if len(s.touch) == n && 2*heap.Len() <= ceilLen {
			ceil, ceilLen = heap.MaxKey(), heap.Len()
		}
		nets := incident[incOff[vi]:incOff[vi+1]]
		if ceil < inf {
			if s.walker != nil {
				nets = s.walker.walk(hypergraph.NodeID(vi), dv, ceil)
			}
			s.scans += len(nets)
		}
		for _, e := range nets {
			// The first settled pin of a net offers the minimal distance
			// through it (later-settled pins only have larger distances),
			// so each net needs scanning exactly once.
			if netGen[e] == gen {
				continue
			}
			netGen[e] = gen
			nd := dv + lengths[e]
			if nd >= ceil {
				continue
			}
			for _, u := range pins[pinOff[e]:pinOff[e+1]] {
				if nd < key[u] {
					if key[u] == inf {
						s.touch = append(s.touch, u)
						heap.Push(int(u), nd)
					} else {
						heap.DecreaseKey(int(u), nd)
					}
					key[u], via[u], parent[u] = nd, e, hypergraph.NodeID(vi)
				}
			}
		}
	}
	return settled
}

func (s *HyperSPT) reset() {
	inf := math.Inf(1)
	for _, v := range s.touch {
		s.key[v] = inf
	}
	s.touch = s.touch[:0]
	s.heap.Reset()
	if s.gen == ^uint32(0) {
		// Generation counter wrapped: clear net marks the slow way.
		clear(s.netGen)
		s.gen = 0
	}
}

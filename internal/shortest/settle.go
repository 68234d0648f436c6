package shortest

import (
	"math"
	"math/bits"

	"repro/internal/hypergraph"
)

// Settle runs Grow's Dijkstra from root, with net e's length given by
// lengths[e], and reports every settled node and its distance to visit in
// increasing distance order (the root first, at distance 0). Growth stops
// when visit returns false or when every reachable node is settled. It
// returns the number of settled nodes.
//
// Settle keeps no tree, and its frontier is a radix heap instead of Grow's
// indexed binary heap: a push is one list link, so a node that is reached
// but never settled costs O(1) instead of a sift. Tied nodes may settle in
// another order than Grow's, but the sequence of distances is Grow's, bit
// for bit. Each distance is a minimum over float offers, and float
// addition is monotone, so it does not depend on which tied node settled
// first.
//
// lengths must hold one finite, non-negative entry per net, and stay
// unmodified for the duration of the call. The radix heap orders keys by
// their IEEE bits, and that order is the numeric one only for keys ≥ 0.
func (s *HyperSPT) Settle(root hypergraph.NodeID, lengths []float64, visit func(hypergraph.NodeID, float64) bool) int {
	s.reset()
	s.gen++
	q := &s.radix
	if q.next == nil {
		q.init(len(s.key))
	}
	q.reset()
	key, netGen, gen := s.key, s.netGen, s.gen
	incOff, incident := s.h.IncidenceArena()
	pinOff, pins := s.h.PinArena()
	inf, settledKey := math.Inf(1), math.Inf(-1)
	key[root] = 0
	s.touch = append(s.touch, root)
	q.link(root, 0)

	settled := 0
	//htpvet:allow ctxpoll -- each iteration settles a node, so the loop is bounded by reached nodes; cancellation is the callers' visit callback returning false (inject polls ctx there with a masked counter)
	for q.used != 0 {
		v := q.pop(key)
		dv := key[v]
		key[v] = settledKey
		settled++
		if !visit(v, dv) {
			break
		}
		for _, e := range incident[incOff[v]:incOff[v+1]] {
			// As in Grow, the first settled pin of a net makes the net's
			// only useful offer.
			if netGen[e] == gen {
				continue
			}
			netGen[e] = gen
			nd := dv + lengths[e]
			for _, u := range pins[pinOff[e]:pinOff[e+1]] {
				if ku := key[u]; nd < ku {
					if ku == inf {
						s.touch = append(s.touch, u)
						q.link(u, q.bucket(nd))
					} else if b := q.bucket(nd); b != q.bucket(ku) {
						q.unlink(u, ku)
						q.link(u, b)
					}
					key[u] = nd
				}
			}
		}
	}
	return settled
}

// radixQueue is Settle's frontier: a radix heap (Ahuja, Mehlhorn, Orlin &
// Tarjan, JACM 1990) over the IEEE bits of non-negative float64 keys, which
// it reads from the grower's key array. Dijkstra never queues a key below
// the one it popped last (last), so a key k lives in bucket
// bits.Len64(k^last): bucket 0 holds keys equal to last, and bucket b > 0
// keys that agree with last above bit b-1 and have that bit set. Pop takes
// from bucket 0; when it is empty, the smallest key of the lowest non-empty
// bucket becomes last and that bucket's keys move to lower buckets, while
// every other key stays where it is. So a queued node's bucket is always a
// function of its key, and no per-node bucket is stored.
//
// Buckets are doubly linked lists threaded through per-node arrays (8 B per
// node): a push is one link, and a key decrease that changes the bucket is
// one unlink and one link.
type radixQueue struct {
	next, prev []hypergraph.NodeID // bucket list links; -1 ends a list
	head       [64]hypergraph.NodeID
	used       uint64 // bit b is set while bucket b is not empty
	last       uint64 // bits of the key popped last
}

func (q *radixQueue) init(n int) {
	links := make([]hypergraph.NodeID, 2*n)
	q.next, q.prev = links[:n:n], links[n:]
}

// reset empties the queue. The list links of the nodes left in it are
// overwritten when they are linked again.
func (q *radixQueue) reset() {
	q.used, q.last = 0, 0
}

// bucket returns the bucket of key k. Keys are non-negative, so bit 63 of
// k^last is clear and the bucket is at most 63.
func (q *radixQueue) bucket(k float64) int {
	return bits.Len64(math.Float64bits(k) ^ q.last)
}

// link pushes v onto the front of bucket b.
func (q *radixQueue) link(v hypergraph.NodeID, b int) {
	h := hypergraph.NodeID(-1)
	if q.used&(1<<b) != 0 {
		h = q.head[b]
		q.prev[h] = v
	}
	q.next[v], q.prev[v] = h, -1
	q.head[b] = v
	q.used |= 1 << b
}

// unlink removes v, whose key is k, from its bucket.
func (q *radixQueue) unlink(v hypergraph.NodeID, k float64) {
	p, n := q.prev[v], q.next[v]
	if p >= 0 {
		q.next[p] = n
	} else {
		b := q.bucket(k)
		q.head[b] = n
		if n < 0 {
			q.used &^= 1 << b
		}
	}
	if n >= 0 {
		q.prev[n] = p
	}
}

// pop removes and returns a node with the smallest key. The queue must not
// be empty.
func (q *radixQueue) pop(key []float64) hypergraph.NodeID {
	if q.used&1 == 0 {
		b := bits.TrailingZeros64(q.used)
		first := q.head[b]
		low := math.Float64bits(key[first])
		for v := q.next[first]; v >= 0; v = q.next[v] {
			low = min(low, math.Float64bits(key[v]))
		}
		q.last = low
		q.used &^= 1 << b
		for v := first; v >= 0; {
			n := q.next[v]
			q.link(v, q.bucket(key[v]))
			v = n
		}
	}
	v := q.head[0]
	q.unlink(v, key[v])
	return v
}

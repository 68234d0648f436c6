package shortest

import (
	"math"
	"math/bits"

	"repro/internal/hypergraph"
)

// Settle grows the distances Grow would from root, with net e's length
// given by lengths[e], and reports every settled node and its distance to
// visit in increasing distance order (the root first, at distance 0).
// Growth stops when visit returns false or when every reachable node is
// settled. It returns the number of settled nodes.
//
// Settle keeps no tree, and its frontier holds nets instead of nodes. When
// a node settles at distance d, each of its nets not yet queued is pushed
// once with key d + lengths[e]: as in Grow, the first settled pin of a net
// makes the net's only useful offer. Popping net e at key k settles every
// still-unsettled pin of e at distance k and pushes that pin's unqueued
// nets. There is no decrease-key, and a net that never pops never has its
// pins read.
//
// This is exact. A node's distance is the minimum over its nets of (the
// net's first settled pin's distance + its length), the same float offers
// Grow takes. The first of u's nets to pop carries that minimum: every
// smaller key pops first, and a net pushed later gets a key at least the
// one popped last, because lengths are non-negative. So the sequence of
// distances is Grow's, bit for bit. Tied nodes may settle in another order
// than Grow's.
//
// lengths must hold one finite, non-negative entry per net, and stay
// unmodified for the duration of the call. The frontier is a radix heap
// over the keys' IEEE bits, and that order is the numeric one only for
// keys ≥ 0.
func (s *HyperSPT) Settle(root hypergraph.NodeID, lengths []float64, visit func(hypergraph.NodeID, float64) bool) int {
	s.reset()
	s.gen++
	q := &s.radix
	if q.next == nil {
		q.init(len(s.netGen))
	}
	q.reset()
	key, netGen, gen := s.key, s.netGen, s.gen
	incOff, incident := s.h.IncidenceArena()
	pinOff, pins := s.h.PinArena()
	inf, settledKey := math.Inf(1), math.Inf(-1)

	// The root settles as the one pin of a net popped at key 0.
	rootPin := [1]hypergraph.NodeID{root}
	popped, k := rootPin[:], 0.0
	settled := 0
	//htpvet:allow ctxpoll -- each iteration pops a queued net, and a net is queued at most once, so the loop is bounded by reached nets; cancellation is the callers' visit callback returning false (inject polls ctx there with a masked counter)
	for {
		for _, u := range popped {
			if key[u] != inf {
				continue
			}
			key[u] = settledKey
			s.touch = append(s.touch, u)
			settled++
			if !visit(u, k) {
				return settled
			}
			for _, e := range incident[incOff[u]:incOff[u+1]] {
				if netGen[e] != gen {
					netGen[e] = gen
					q.push(e, k+lengths[e])
				}
			}
		}
		if q.used == 0 {
			return settled
		}
		var e hypergraph.NetID
		e, k = q.pop()
		popped = pins[pinOff[e]:pinOff[e+1]]
	}
}

// netQueue is Settle's frontier: a push-only radix heap (Ahuja, Mehlhorn,
// Orlin & Tarjan, JACM 1990) over the IEEE bits of non-negative float64
// net keys. Dijkstra never queues a key below the one it popped last
// (last), so a key k lives in bucket bits.Len64(k^last): bucket 0 holds
// keys equal to last, and bucket b > 0 keys that agree with last above bit
// b-1 and have that bit set. Pop takes from bucket 0; when it is empty, the
// smallest key of the lowest non-empty bucket becomes last and that
// bucket's keys move to lower buckets, while every other key stays where it
// is.
//
// Each net is pushed at most once per growth and its key never changes, so
// the buckets are singly linked lists threaded through per-net arrays, with
// the key's bits stored beside the link: 12 B per net.
type netQueue struct {
	next []hypergraph.NetID // bucket list links; -1 ends a list
	key  []uint64           // bits of each queued net's key
	head [64]hypergraph.NetID
	used uint64 // bit b is set while bucket b is not empty
	last uint64 // bits of the key popped last
}

func (q *netQueue) init(m int) {
	q.next = make([]hypergraph.NetID, m)
	q.key = make([]uint64, m)
}

// reset empties the queue. The links and keys of the nets left in it are
// overwritten when they are pushed again.
func (q *netQueue) reset() {
	q.used, q.last = 0, 0
}

// push queues net e with key k, which must not be below the key popped
// last.
func (q *netQueue) push(e hypergraph.NetID, k float64) {
	kb := math.Float64bits(k)
	q.key[e] = kb
	q.link(e, kb)
}

// link puts net e, whose key bits are kb, at the front of its bucket.
// Keys are non-negative, so bit 63 of kb^last is clear and the bucket is at
// most 63.
func (q *netQueue) link(e hypergraph.NetID, kb uint64) {
	b := bits.Len64(kb ^ q.last)
	q.next[e] = -1
	if q.used&(1<<b) != 0 {
		q.next[e] = q.head[b]
	}
	q.head[b] = e
	q.used |= 1 << b
}

// pop removes and returns a net with the smallest key, and that key. The
// queue must not be empty.
func (q *netQueue) pop() (hypergraph.NetID, float64) {
	if q.used&1 == 0 {
		b := bits.TrailingZeros64(q.used)
		first := q.head[b]
		low := q.key[first]
		for e := q.next[first]; e >= 0; e = q.next[e] {
			low = min(low, q.key[e])
		}
		q.last = low
		q.used &^= 1 << b
		for e := first; e >= 0; {
			n := q.next[e]
			q.link(e, q.key[e])
			e = n
		}
	}
	e := q.head[0]
	if q.head[0] = q.next[e]; q.head[0] < 0 {
		q.used &^= 1
	}
	return e, math.Float64frombits(q.last)
}

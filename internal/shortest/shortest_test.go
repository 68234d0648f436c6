package shortest

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/pqueue"
)

func TestDijkstraLine(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	r := Dijkstra(g, 0)
	want := []float64{0, 1, 3, 6}
	for v, w := range want {
		if r.Dist[v] != w {
			t.Fatalf("Dist[%d] = %g, want %g", v, r.Dist[v], w)
		}
	}
	path := r.PathTo(3)
	if len(path) != 4 || path[0] != 0 || path[3] != 3 {
		t.Fatalf("PathTo(3) = %v", path)
	}
}

func TestDijkstraPrefersLighterDetour(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 2, 10)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	r := Dijkstra(g, 0)
	if r.Dist[2] != 3 {
		t.Fatalf("Dist[2] = %g, want 3", r.Dist[2])
	}
	if p := r.PathTo(2); len(p) != 3 || p[1] != 1 {
		t.Fatalf("PathTo(2) = %v", p)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	r := Dijkstra(g, 0)
	if !math.IsInf(r.Dist[2], 1) {
		t.Fatalf("Dist[2] = %g, want +Inf", r.Dist[2])
	}
	if r.PathTo(2) != nil {
		t.Fatal("PathTo(unreachable) should be nil")
	}
}

func TestDijkstraZeroWeightEdges(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	r := Dijkstra(g, 0)
	if r.Dist[2] != 0 {
		t.Fatalf("Dist[2] = %g, want 0", r.Dist[2])
	}
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < m; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64()*10)
	}
	return g
}

func TestDijkstraMatchesBellmanFordAndFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(3*n))
		src := rng.Intn(n)
		dj := Dijkstra(g, src)
		bf := BellmanFord(g, src)
		fw := FloydWarshall(g)
		for v := 0; v < n; v++ {
			if !closeOrBothInf(dj.Dist[v], bf[v]) {
				t.Fatalf("trial %d: Dijkstra %g vs BellmanFord %g at %d", trial, dj.Dist[v], bf[v], v)
			}
			if !closeOrBothInf(dj.Dist[v], fw[src][v]) {
				t.Fatalf("trial %d: Dijkstra %g vs FloydWarshall %g at %d", trial, dj.Dist[v], fw[src][v], v)
			}
		}
	}
}

func closeOrBothInf(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) < 1e-9
}

func TestDijkstraParentEdgesFormTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 30, 80)
	r := Dijkstra(g, 0)
	for v := 0; v < 30; v++ {
		if r.Dist[v] == Inf || v == 0 {
			continue
		}
		p, pe := r.Parent[v], r.ParentEdge[v]
		if p < 0 || pe < 0 {
			t.Fatalf("settled vertex %d lacks parent", v)
		}
		e := g.Edge(pe)
		if (e.U != v || e.V != p) && (e.V != v || e.U != p) {
			t.Fatalf("parent edge %d does not join %d-%d", pe, p, v)
		}
		if math.Abs(r.Dist[p]+e.Weight-r.Dist[v]) > 1e-9 {
			t.Fatalf("tree edge not tight at %d", v)
		}
	}
}

// ---- hypergraph SPT ----

// HyperDistances computes full single-source distances on the hypergraph —
// a convenience wrapper over Grow that settles everything reachable.
func HyperDistances(h *hypergraph.Hypergraph, root hypergraph.NodeID, lengths []float64) []float64 {
	dist := make([]float64, h.NumNodes())
	for i := range dist {
		dist[i] = Inf
	}
	s := NewHyperSPT(h)
	s.Grow(root, lengths, func(v Visit) bool {
		dist[v.Node] = v.Dist
		return true
	})
	return dist
}

// pairExpand builds a plain graph where each net of h becomes a clique of
// edges with weight lengths[e]. Dijkstra over it is the oracle for HyperSPT.
func pairExpand(h *hypergraph.Hypergraph, lengths []float64) *graph.Graph {
	g := graph.New(h.NumNodes())
	for e := 0; e < h.NumNets(); e++ {
		ps := h.Pins(hypergraph.NetID(e))
		w := lengths[e]
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				g.AddEdge(int(ps[i]), int(ps[j]), w)
			}
		}
	}
	return g
}

func randomHypergraph(rng *rand.Rand, n, m int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(n)
	for e := 0; e < m; e++ {
		maxCard := 4
		if maxCard > n {
			maxCard = n
		}
		card := 2 + rng.Intn(maxCard-1)
		perm := rng.Perm(n)[:card]
		pins := make([]hypergraph.NodeID, card)
		for i, p := range perm {
			pins[i] = hypergraph.NodeID(p)
		}
		b.AddNet("", 1, pins...)
	}
	return b.MustBuild()
}

func TestHyperDistancesMatchesPairExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(25)
		h := randomHypergraph(rng, n, 1+rng.Intn(2*n))
		lens := make([]float64, h.NumNets())
		for i := range lens {
			lens[i] = rng.Float64() * 5
		}
		g := pairExpand(h, lens)
		src := hypergraph.NodeID(rng.Intn(n))
		hd := HyperDistances(h, src, lens)
		r := Dijkstra(g, int(src))
		for v := 0; v < n; v++ {
			if !closeOrBothInf(hd[v], r.Dist[v]) {
				t.Fatalf("trial %d: node %d: hyper %g vs graph %g", trial, v, hd[v], r.Dist[v])
			}
		}
	}
}

func TestGrowVisitsInDistanceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := randomHypergraph(rng, 30, 60)
	lens := make([]float64, h.NumNets())
	for i := range lens {
		lens[i] = rng.Float64()
	}
	s := NewHyperSPT(h)
	last := -1.0
	count := s.Grow(0, lens, func(v Visit) bool {
		if v.Dist < last {
			t.Fatalf("visit order regressed: %g after %g", v.Dist, last)
		}
		last = v.Dist
		return true
	})
	if count == 0 {
		t.Fatal("no nodes settled")
	}
}

func TestGrowStopsWhenVisitReturnsFalse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := randomHypergraph(rng, 20, 40)
	lens := make([]float64, h.NumNets())
	for e := range lens {
		lens[e] = 1
	}
	s := NewHyperSPT(h)
	visited := 0
	count := s.Grow(0, lens, func(v Visit) bool {
		visited++
		return visited < 5
	})
	if count != 5 || visited != 5 {
		t.Fatalf("settled %d, visited %d, want 5", count, visited)
	}
}

func TestGrowRootVisit(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(3)
	b.AddNet("", 1, 0, 1)
	b.AddNet("", 1, 1, 2)
	h := b.MustBuild()
	s := NewHyperSPT(h)
	var visits []Visit
	s.Grow(1, []float64{2, 2}, func(v Visit) bool {
		visits = append(visits, v)
		return true
	})
	if len(visits) != 3 {
		t.Fatalf("settled %d nodes", len(visits))
	}
	if visits[0].Node != 1 || visits[0].Dist != 0 || visits[0].Via != -1 || visits[0].Parent != -1 {
		t.Fatalf("root visit = %+v", visits[0])
	}
	for _, v := range visits[1:] {
		if v.Dist != 2 || v.Parent != 1 {
			t.Fatalf("child visit = %+v", v)
		}
	}
}

func TestGrowTreeStructureIsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h := randomHypergraph(rng, 40, 80)
	lens := make([]float64, h.NumNets())
	for i := range lens {
		lens[i] = 0.1 + rng.Float64()
	}
	s := NewHyperSPT(h)
	dist := map[hypergraph.NodeID]float64{}
	s.Grow(3, lens, func(v Visit) bool {
		if v.Via >= 0 {
			pd, ok := dist[v.Parent]
			if !ok {
				t.Fatalf("parent %d not settled before child %d", v.Parent, v.Node)
			}
			if math.Abs(pd+lens[v.Via]-v.Dist) > 1e-9 {
				t.Fatalf("tree distance not tight at %d: %g + %g != %g", v.Node, pd, lens[v.Via], v.Dist)
			}
			// the via net must actually contain both endpoints
			foundP, foundC := false, false
			for _, u := range h.Pins(v.Via) {
				if u == v.Parent {
					foundP = true
				}
				if u == v.Node {
					foundC = true
				}
			}
			if !foundP || !foundC {
				t.Fatalf("via net %d does not join %d-%d", v.Via, v.Parent, v.Node)
			}
		}
		dist[v.Node] = v.Dist
		return true
	})
}

func TestGrowReuseAcrossRootsMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := randomHypergraph(rng, 25, 50)
	lens := make([]float64, h.NumNets())
	for i := range lens {
		lens[i] = rng.Float64()
	}
	shared := NewHyperSPT(h)
	for root := 0; root < h.NumNodes(); root++ {
		got := make([]float64, h.NumNodes())
		for i := range got {
			got[i] = Inf
		}
		shared.Grow(hypergraph.NodeID(root), lens, func(v Visit) bool {
			got[v.Node] = v.Dist
			return true
		})
		want := HyperDistances(h, hypergraph.NodeID(root), lens)
		for v := range want {
			if !closeOrBothInf(got[v], want[v]) {
				t.Fatalf("root %d node %d: reused %g vs fresh %g", root, v, got[v], want[v])
			}
		}
	}
}

func BenchmarkHyperSPTGrow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := randomHypergraph(rng, 2000, 4000)
	lengths := make([]float64, h.NumNets())
	for e := range lengths {
		lengths[e] = rng.Float64()
	}
	s := NewHyperSPT(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Grow(hypergraph.NodeID(i%h.NumNodes()), lengths, func(v Visit) bool { return true })
	}
}

// ---- reference grower ----

// refSPT is the oracle for HyperSPT's kernel: a plain Dijkstra grower over
// CSR copies of the incidence and pin lists, with a packed per-node record
// holding an explicit untouched/in-heap/settled state, that scans every pin
// of every net it reaches.
type refSPT struct {
	h     *hypergraph.Hypergraph
	nodes []sptNode

	incStart []int32
	incList  []int32
	pinStart []int32
	pinList  []int32

	netGen []uint32
	gen    uint32
	heap   *pqueue.IndexedMinHeap
	touch  []int32 // nodes whose state must be reset before the next growth
}

// sptNode is the per-node search state, packed so one settle or relaxation
// touches a single cache line instead of four arrays.
type sptNode struct {
	dist   float64
	via    int32 // net that settled the node; -1 for the root
	parent int32 // pin of via-net already in the tree; -1 for the root
	state  uint8 // 0 untouched, 1 in heap, 2 settled
}

func newRefSPT(h *hypergraph.Hypergraph) *refSPT {
	n := h.NumNodes()
	m := h.NumNets()
	s := &refSPT{
		h:        h,
		nodes:    make([]sptNode, n),
		incStart: make([]int32, n+1),
		pinStart: make([]int32, m+1),
		netGen:   make([]uint32, m),
		heap:     pqueue.New(n),
	}
	inc := 0
	for v := 0; v < n; v++ {
		s.incStart[v] = int32(inc)
		inc += len(h.Incident(hypergraph.NodeID(v)))
	}
	s.incStart[n] = int32(inc)
	s.incList = make([]int32, 0, inc)
	for v := 0; v < n; v++ {
		for _, e := range h.Incident(hypergraph.NodeID(v)) {
			s.incList = append(s.incList, int32(e))
		}
	}
	pins := 0
	for e := 0; e < m; e++ {
		s.pinStart[e] = int32(pins)
		pins += len(h.Pins(hypergraph.NetID(e)))
	}
	s.pinStart[m] = int32(pins)
	s.pinList = make([]int32, 0, pins)
	for e := 0; e < m; e++ {
		for _, u := range h.Pins(hypergraph.NetID(e)) {
			s.pinList = append(s.pinList, int32(u))
		}
	}
	return s
}

// grow is the shared Dijkstra core: lengths (fast path) takes precedence
// over length (closure path) when non-nil.
func (s *refSPT) grow(root hypergraph.NodeID, lengths []float64, length func(hypergraph.NetID) float64, visit func(Visit) bool) int {
	s.reset()
	s.gen++
	nodes := s.nodes
	netGen, gen, heap := s.netGen, s.gen, s.heap
	incStart, incList := s.incStart, s.incList
	pinStart, pinList := s.pinStart, s.pinList
	nodes[root] = sptNode{dist: 0, via: -1, parent: -1, state: 1}
	s.touch = append(s.touch, int32(root))
	heap.Push(int(root), 0)

	settled := 0
	for heap.Len() > 0 {
		vi, dv := heap.Pop()
		nv := &nodes[vi]
		if nv.state == 2 {
			continue
		}
		nv.state = 2
		settled++
		keep := visit(Visit{
			Node:   hypergraph.NodeID(vi),
			Dist:   dv,
			Via:    hypergraph.NetID(nv.via),
			Parent: hypergraph.NodeID(nv.parent),
		})
		if !keep {
			break
		}
		for _, e := range incList[incStart[vi]:incStart[vi+1]] {
			// The first settled pin of a net offers the minimal distance
			// through it (later-settled pins only have larger distances),
			// so each net needs scanning exactly once.
			if netGen[e] == gen {
				continue
			}
			netGen[e] = gen
			var le float64
			if lengths != nil {
				le = lengths[e]
			} else {
				le = length(hypergraph.NetID(e))
			}
			nd := dv + le
			for _, u := range pinList[pinStart[e]:pinStart[e+1]] {
				nu := &nodes[u]
				if nu.state == 2 || int(u) == vi {
					continue
				}
				if nu.state == 0 {
					*nu = sptNode{dist: nd, via: e, parent: int32(vi), state: 1}
					s.touch = append(s.touch, u)
					heap.Push(int(u), nd)
				} else if nd < nu.dist {
					nu.dist = nd
					nu.via = e
					nu.parent = int32(vi)
					heap.DecreaseKey(int(u), nd)
				}
			}
		}
	}
	return settled
}

func (s *refSPT) reset() {
	for _, v := range s.touch {
		s.nodes[v].state = 0
	}
	s.touch = s.touch[:0]
	s.heap.Reset()
	if s.gen == ^uint32(0) {
		// Generation counter wrapped: clear net marks the slow way.
		for i := range s.netGen {
			s.netGen[i] = 0
		}
		s.gen = 0
	}
}

// ---- kernel vs reference ----

// growCase is one differential instance: a hypergraph, its lengths, the
// roots to grow from with one reused grower of each kind, and the number
// of settles after which visit stops the growth (0: never).
type growCase struct {
	h       *hypergraph.Hypergraph
	lengths []float64
	roots   []hypergraph.NodeID
	stopK   int
}

// newGrowCase draws a differential instance from seed. shape picks the
// hypergraph family (bit 0: disconnected halves, bit 1: a few near-global
// nets); lenMode the length family: 0 ties from {0,1,2,3}, 1 uniform, 2
// uniform with tiny negatives (-1e-13), 3 lengths near exp(60)-1, the
// inject engine's cap. nodes and stop are folded into 2..400 nodes and
// 0..n settles.
func newGrowCase(seed int64, nodes uint16, shape, lenMode uint8, stop uint16) growCase {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(nodes)%399
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(n)
	addNet := func(lo, hi, maxCard int) {
		span := hi - lo
		if span < 2 {
			return
		}
		card := 2 + rng.Intn(min(maxCard, span)-1)
		pins := make([]hypergraph.NodeID, card)
		for i, p := range rng.Perm(span)[:card] {
			pins[i] = hypergraph.NodeID(lo + p)
		}
		b.AddNet("", 1, pins...)
	}
	// Disconnected: nets stay inside [0, n/2) or [n/2, n).
	split := shape&1 != 0
	m := 1 + rng.Intn(3*n)
	for e := 0; e < m; e++ {
		switch {
		case !split:
			addNet(0, n, 40)
		case e%2 == 0:
			addNet(0, n/2, 40)
		default:
			addNet(n/2, n, 40)
		}
	}
	if shape&2 != 0 {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			if split {
				addNet(0, n/2, n)
			} else {
				addNet(0, n, n)
			}
		}
	}
	h := b.MustBuild()
	lengths := make([]float64, h.NumNets())
	big := math.Exp(60) - 1
	for e := range lengths {
		switch lenMode % 4 {
		case 0:
			lengths[e] = float64(rng.Intn(4))
		case 1:
			lengths[e] = rng.Float64()
		case 2:
			lengths[e] = rng.Float64()
			if rng.Intn(4) == 0 {
				lengths[e] = -1e-13
			}
		default:
			lengths[e] = big - float64(rng.Intn(3))*1e12*rng.Float64()
		}
	}
	roots := make([]hypergraph.NodeID, 1+rng.Intn(6))
	for i := range roots {
		roots[i] = hypergraph.NodeID(rng.Intn(n))
	}
	return growCase{h: h, lengths: lengths, roots: roots, stopK: int(stop) % (n + 1)}
}

// checkMatchesReference grows every root of c with one HyperSPT and one
// reference grower and requires identical visits — node, distance bits,
// via net and parent — and identical settled counts.
func checkMatchesReference(t *testing.T, c growCase) {
	t.Helper()
	type rec struct {
		node   hypergraph.NodeID
		dist   uint64
		via    hypergraph.NetID
		parent hypergraph.NodeID
	}
	record := func(out *[]rec) func(Visit) bool {
		return func(v Visit) bool {
			*out = append(*out, rec{v.Node, math.Float64bits(v.Dist), v.Via, v.Parent})
			return c.stopK == 0 || len(*out) < c.stopK
		}
	}
	s, ref := NewHyperSPT(c.h), newRefSPT(c.h)
	var got, want []rec
	for _, root := range c.roots {
		got, want = got[:0], want[:0]
		ng := s.Grow(root, c.lengths, record(&got))
		nw := ref.grow(root, c.lengths, nil, record(&want))
		if ng != nw || len(got) != len(want) {
			t.Fatalf("root %d: settled %d (%d visits), reference %d (%d visits)", root, ng, len(got), nw, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("root %d visit %d: %+v, reference %+v", root, i, got[i], want[i])
			}
		}
	}
}

// TestGrowLengthsMatchesGrow checks the kernel against the reference
// grower it replaced: for random hypergraphs and length families, every
// growth must produce exactly the reference's visit sequence — same nodes,
// same order, bit-identical distances, same tree edges.
func TestGrowLengthsMatchesGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 64; trial++ {
		c := newGrowCase(rng.Int63(), uint16(rng.Intn(400)), uint8(trial), uint8(trial/4), uint16(rng.Intn(3)*rng.Intn(400)))
		checkMatchesReference(t, c)
	}
}

func FuzzGrowMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(30), uint8(0), uint8(0), uint16(0))
	f.Add(int64(2), uint16(398), uint8(2), uint8(1), uint16(0))
	f.Add(int64(3), uint16(200), uint8(1), uint8(2), uint16(17))
	f.Add(int64(4), uint16(350), uint8(3), uint8(3), uint16(0))
	f.Add(int64(5), uint16(0), uint8(2), uint8(0), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint16, shape, lenMode uint8, stop uint16) {
		checkMatchesReference(t, newGrowCase(seed, nodes, shape, lenMode, stop))
	})
}

// TestGrowLengthsEarlyStop checks the stop-on-false contract.
func TestGrowLengthsEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	h := randomHypergraph(rng, 20, 30)
	lengths := make([]float64, h.NumNets())
	for e := range lengths {
		lengths[e] = 1 + rng.Float64()
	}
	s := NewHyperSPT(h)
	seen := 0
	settled := s.Grow(0, lengths, func(v Visit) bool {
		seen++
		return seen < 5
	})
	if settled != 5 || seen != 5 {
		t.Fatalf("settled %d, seen %d; want 5, 5", settled, seen)
	}
}

// ---- distance-only pass vs Grow ----

// newSettleCase draws an instance for Settle from newGrowCase's shapes,
// with non-negative lengths only. lenMode picks one of newGrowCase's
// non-negative families (ties from {0,1,2,3}, uniform, near exp(60)-1) or
// one of three that stress the radix heap's ties and bucket range: one
// length on every net, all zeros, and a log-uniform spread over
// 1e-300..1e26. Shape bit 2 adds one of addFrontierCase's cases, picked by
// shape>>3 mod 3.
func newSettleCase(seed int64, nodes uint16, shape, lenMode uint8, stop uint16) growCase {
	mode := lenMode % 6
	c := newGrowCase(seed, nodes, shape, [3]uint8{0, 1, 3}[mode%3], stop)
	rng := rand.New(rand.NewSource(^seed))
	one := []float64{0.1, 1, 3}[rng.Intn(3)]
	for e := range c.lengths {
		switch mode {
		case 3:
			c.lengths[e] = one
		case 4:
			c.lengths[e] = 0
		case 5:
			c.lengths[e] = math.Pow(10, -300+326*rng.Float64())
		}
	}
	if shape&4 != 0 {
		addFrontierCase(&c, rng, shape>>3%3)
	}
	return c
}

// addFrontierCase adds nets to c that stress Settle's net-keyed frontier:
//   - 0: one net over every node, as long as a random net of c;
//   - 1: a twin of every net, over the same pins and 2l+1 long, so every
//     pin of a twin has settled by the time the twin pops;
//   - 2: one zero-length net over every node, every other length raised by
//     1, and the stop after 2..n-1 settles: the root's first pop settles
//     every other node at distance 0, and the stop lands inside that net's
//     pin list.
func addFrontierCase(c *growCase, rng *rand.Rand, which uint8) {
	n, m := c.h.NumNodes(), c.h.NumNets()
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(n)
	for e := range m {
		b.AddNet("", 1, c.h.Pins(hypergraph.NetID(e))...)
	}
	all := make([]hypergraph.NodeID, n)
	for i, v := range rng.Perm(n) {
		all[i] = hypergraph.NodeID(v)
	}
	switch which {
	case 0:
		l := 1.0
		if m > 0 {
			l = c.lengths[rng.Intn(m)]
		}
		b.AddNet("", 1, all...)
		c.lengths = append(c.lengths, l)
	case 1:
		for e := range m {
			b.AddNet("", 1, c.h.Pins(hypergraph.NetID(e))...)
			c.lengths = append(c.lengths, 2*c.lengths[e]+1)
		}
	default:
		for e := range c.lengths {
			c.lengths[e]++
		}
		b.AddNet("", 1, all...)
		c.lengths = append(c.lengths, 0)
		if n > 2 {
			c.stopK = 2 + c.stopK%(n-2)
		}
	}
	c.h = b.MustBuild()
}

// checkSettleMatchesGrow grows every root of c with Settle and with Grow
// (one reused grower each) and requires the same settled count, the same
// distance sequence bit for bit, and the same node set in every tie group
// both passes settled in full. Only the last group can be cut short by the
// stop-after-k, and there the two may have picked different tied nodes.
func checkSettleMatchesGrow(t *testing.T, c growCase) {
	t.Helper()
	type rec struct {
		node hypergraph.NodeID
		dist uint64
	}
	more := func(n int) bool { return c.stopK == 0 || n < c.stopK }
	s, ref := NewHyperSPT(c.h), NewHyperSPT(c.h)
	var got, want []rec
	for _, root := range c.roots {
		got, want = got[:0], want[:0]
		ng := s.Settle(root, c.lengths, func(v hypergraph.NodeID, d float64) bool {
			got = append(got, rec{v, math.Float64bits(d)})
			return more(len(got))
		})
		nw := ref.Grow(root, c.lengths, func(v Visit) bool {
			want = append(want, rec{v.Node, math.Float64bits(v.Dist)})
			return more(len(want))
		})
		if ng != nw || len(got) != len(want) {
			t.Fatalf("root %d: Settle settled %d (%d visits), Grow %d (%d visits)", root, ng, len(got), nw, len(want))
		}
		for i := range want {
			if got[i].dist != want[i].dist {
				t.Fatalf("root %d visit %d: Settle distance %g, Grow %g", root, i,
					math.Float64frombits(got[i].dist), math.Float64frombits(want[i].dist))
			}
		}
		full := len(want)
		if !more(len(want)) {
			// The stop cut the growth: its last tie group may be partial.
			for full > 0 && want[full-1].dist == want[len(want)-1].dist {
				full--
			}
		}
		less := func(a, b rec) int { return cmp.Compare(a.node, b.node) }
		for lo := 0; lo < full; {
			hi := lo + 1
			for hi < full && want[hi].dist == want[lo].dist {
				hi++
			}
			g, w := slices.Clone(got[lo:hi]), slices.Clone(want[lo:hi])
			slices.SortFunc(g, less)
			slices.SortFunc(w, less)
			if !slices.Equal(g, w) {
				t.Fatalf("root %d: tie group at distance %g settles %v, Grow %v", root,
					math.Float64frombits(want[lo].dist), g, w)
			}
			lo = hi
		}
	}
}

func TestSettleMatchesGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	for trial := 0; trial < 144; trial++ {
		// The last 48 trials add each frontier case under every length family.
		shape := uint8(trial) & 3
		if trial >= 96 {
			shape |= 4 | uint8(trial%3)<<3
		}
		c := newSettleCase(rng.Int63(), uint16(rng.Intn(400)), shape, uint8(trial/4), uint16(rng.Intn(3)*rng.Intn(400)))
		checkSettleMatchesGrow(t, c)
	}
}

func FuzzSettleMatchesGrow(f *testing.F) {
	f.Add(int64(1), uint16(30), uint8(0), uint8(0), uint16(0))
	f.Add(int64(2), uint16(398), uint8(2), uint8(1), uint16(0))
	f.Add(int64(3), uint16(200), uint8(1), uint8(2), uint16(17))
	f.Add(int64(4), uint16(350), uint8(3), uint8(3), uint16(0))
	f.Add(int64(5), uint16(120), uint8(2), uint8(4), uint16(40))
	f.Add(int64(6), uint16(300), uint8(0), uint8(5), uint16(0))
	f.Add(int64(7), uint16(250), uint8(4), uint8(1), uint16(0))
	f.Add(int64(8), uint16(180), uint8(4|1<<3|2), uint8(3), uint16(0))
	f.Add(int64(9), uint16(90), uint8(4|2<<3), uint8(5), uint16(33))
	f.Add(int64(10), uint16(320), uint8(4|1<<3), uint8(0), uint16(150))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint16, shape, lenMode uint8, stop uint16) {
		checkSettleMatchesGrow(t, newSettleCase(seed, nodes, shape, lenMode, stop))
	})
}

// TestSettleAllocatesNothing checks that Settle, once its frontier is
// allocated, runs without allocating.
func TestSettleAllocatesNothing(t *testing.T) {
	c := newSettleCase(7, 300, 2, 1, 0)
	s := NewHyperSPT(c.h)
	visit := func(hypergraph.NodeID, float64) bool { return true }
	s.Settle(0, c.lengths, visit)
	root := hypergraph.NodeID(0)
	if allocs := testing.AllocsPerRun(20, func() {
		root = (root + 1) % hypergraph.NodeID(c.h.NumNodes())
		s.Settle(root, c.lengths, visit)
	}); allocs != 0 {
		t.Fatalf("warmed-up Settle allocates %v times per run", allocs)
	}
}

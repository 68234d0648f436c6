// Package treemap implements min-cost tree partitioning in the sense of
// Vijayan (IEEE ToC'91, the paper's ref [16]): map the nodes of a netlist
// hypergraph onto the vertices of a fixed host tree T — every vertex, not
// just leaves, may hold logic, subject to per-vertex capacity — minimizing
// the cost of globally routing every net over T's edges:
//
//	cost = Σ_e c(e) · w(minimal subtree of T spanning e's host vertices).
//
// This is the other generalization of partitioning to tree structures that
// the paper contrasts with HTP (§1). The mapper here uses recursive
// edge-separation: the centroid-most tree edge splits T into two capacity
// pools, an FM bipartition splits the netlist to match, and each side
// recurses; a greedy adjacent-vertex improvement pass follows.
package treemap

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/anytime"
	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// HostTree is an undirected tree whose vertices hold logic. Edges have
// routing weights; vertices have capacities.
type HostTree struct {
	cap    []int64
	edges  [][2]int
	weight []float64
	adj    [][]int32 // vertex -> edge indices
}

// NewHostTree creates a host tree with the given vertex capacities and no
// edges.
func NewHostTree(capacities []int64) *HostTree {
	t := &HostTree{
		cap: append([]int64(nil), capacities...),
		adj: make([][]int32, len(capacities)),
	}
	return t
}

// NumVertices reports the number of host vertices.
func (t *HostTree) NumVertices() int { return len(t.cap) }

// Capacity returns vertex q's capacity.
func (t *HostTree) Capacity(q int) int64 { return t.cap[q] }

// AddEdge joins u and v with the given routing weight and returns the edge
// index.
func (t *HostTree) AddEdge(u, v int, w float64) int {
	if u < 0 || u >= len(t.cap) || v < 0 || v >= len(t.cap) || u == v {
		panic("treemap: bad edge endpoints")
	}
	if w < 0 {
		panic("treemap: negative edge weight")
	}
	i := len(t.edges)
	t.edges = append(t.edges, [2]int{u, v})
	t.weight = append(t.weight, w)
	t.adj[u] = append(t.adj[u], int32(i))
	t.adj[v] = append(t.adj[v], int32(i))
	return i
}

// Validate checks that the structure is a tree (connected, |E| = |V|-1).
func (t *HostTree) Validate() error {
	n := len(t.cap)
	if n == 0 {
		return fmt.Errorf("treemap: empty host tree")
	}
	if len(t.edges) != n-1 {
		return fmt.Errorf("treemap: %d edges for %d vertices", len(t.edges), n)
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	//htpvet:allow ctxpoll -- seen-guarded DFS over host-tree vertices, each pushed at most once; host trees are machine topologies, orders of magnitude smaller than the hypergraph
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range t.adj[v] {
			u := t.other(int(ei), v)
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	if count != n {
		return fmt.Errorf("treemap: host tree is disconnected")
	}
	for q, c := range t.cap {
		if c < 0 {
			return fmt.Errorf("treemap: vertex %d has negative capacity", q)
		}
	}
	return nil
}

func (t *HostTree) other(edge, v int) int {
	e := t.edges[edge]
	if e[0] == v {
		return e[1]
	}
	return e[0]
}

// sideOf returns the vertex set containing `from` after removing edge.
func (t *HostTree) sideOf(edge, from int) []int {
	seen := make([]bool, len(t.cap))
	seen[from] = true
	out := []int{from}
	stack := []int{from}
	//htpvet:allow ctxpoll -- seen-guarded DFS over host-tree vertices, each pushed at most once; host trees are machine topologies, orders of magnitude smaller than the hypergraph
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range t.adj[v] {
			if int(ei) == edge {
				continue
			}
			u := t.other(int(ei), v)
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
				stack = append(stack, u)
			}
		}
	}
	return out
}

// Mapping assigns every hypergraph node to a host vertex.
type Mapping struct {
	H    *hypergraph.Hypergraph
	T    *HostTree
	Host []int32 // node -> host vertex
}

// Validate checks capacities and assignment completeness.
func (m *Mapping) Validate() error {
	load := make([]int64, m.T.NumVertices())
	for v := 0; v < m.H.NumNodes(); v++ {
		q := m.Host[v]
		if q < 0 || int(q) >= m.T.NumVertices() {
			return fmt.Errorf("treemap: node %d unmapped", v)
		}
		load[q] += m.H.NodeSize(hypergraph.NodeID(v))
	}
	for q, l := range load {
		if l > m.T.cap[q] {
			return fmt.Errorf("treemap: vertex %d load %d > capacity %d", q, l, m.T.cap[q])
		}
	}
	return nil
}

// NetCost returns c(e) times the weight of the minimal subtree of T
// spanning e's host vertices (0 when all pins share a host).
func (m *Mapping) NetCost(e hypergraph.NetID) float64 {
	// An edge belongs to the spanning subtree iff both of its sides contain
	// at least one host. Count hosts per side via one DFS from vertex 0
	// using subtree host counts.
	hosts := map[int]int{}
	for _, v := range m.H.Pins(e) {
		hosts[int(m.Host[v])]++
	}
	if len(hosts) <= 1 {
		return 0
	}
	totalHosts := len(m.H.Pins(e))
	var w float64
	// Rooted subtree host counts: iterative post-order from vertex 0.
	n := m.T.NumVertices()
	parentEdge := make([]int32, n)
	order := make([]int32, 0, n)
	seen := make([]bool, n)
	stack := []int32{0}
	seen[0] = true
	parentEdge[0] = -1
	//htpvet:allow ctxpoll -- seen-guarded DFS over host-tree vertices, each pushed at most once; host trees are machine topologies, orders of magnitude smaller than the hypergraph
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for _, ei := range m.T.adj[v] {
			if int32(ei) == parentEdge[v] {
				continue
			}
			u := m.T.other(int(ei), int(v))
			if !seen[u] {
				seen[u] = true
				parentEdge[u] = ei
				stack = append(stack, int32(u))
			}
		}
	}
	below := make([]int, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		below[v] += hosts[int(v)]
		if parentEdge[v] >= 0 {
			p := m.T.other(int(parentEdge[v]), int(v))
			below[p] += below[v]
			if below[v] > 0 && below[v] < totalHosts {
				w += m.T.weight[parentEdge[v]]
			}
		}
	}
	return w * m.H.NetCapacity(e)
}

// Cost returns the total routing cost over all nets.
func (m *Mapping) Cost() float64 {
	var total float64
	for e := 0; e < m.H.NumNets(); e++ {
		total += m.NetCost(hypergraph.NetID(e))
	}
	return total
}

// Options tunes MapCtx.
type Options struct {
	// Rng drives FM seeds; defaults to a fixed source.
	Rng *rand.Rand
	// ImprovePasses bounds the greedy adjacent-move improvement. Default 4.
	ImprovePasses int
	// Observer receives treemap-assign and treemap-improve span trace
	// events (see internal/obs). Nil disables telemetry at zero cost.
	Observer obs.Observer
}

// MapCtx assigns the hypergraph onto the host tree by recursive
// edge-separation plus greedy improvement. The total capacity must cover
// the total node size. Cancellation during the recursive assignment returns
// an error wrapping anytime.ErrNoPartition (no complete mapping exists yet);
// cancellation during the improvement passes returns the current valid
// mapping — improvement only lowers cost, never validity.
func MapCtx(ctx context.Context, h *hypergraph.Hypergraph, t *HostTree, opt Options) (*Mapping, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	var capTotal int64
	for _, c := range t.cap {
		capTotal += c
	}
	if capTotal < h.TotalSize() {
		return nil, fmt.Errorf("treemap: total capacity %d < design size %d: %w",
			capTotal, h.TotalSize(), anytime.ErrInfeasible)
	}
	if opt.Rng == nil {
		opt.Rng = rand.New(rand.NewSource(1))
	}
	if opt.ImprovePasses == 0 {
		opt.ImprovePasses = 4
	}

	m := &Mapping{H: h, T: t, Host: make([]int32, h.NumNodes())}
	for i := range m.Host {
		m.Host[i] = -1
	}
	all := make([]hypergraph.NodeID, h.NumNodes())
	for i := range all {
		all[i] = hypergraph.NodeID(i)
	}
	allVerts := make([]int, t.NumVertices())
	for i := range allVerts {
		allVerts[i] = i
	}
	var phase time.Time
	if opt.Observer != nil {
		phase = time.Now()
	}
	if err := assign(ctx, m, h, all, allVerts, opt.Rng); err != nil {
		return nil, err
	}
	if opt.Observer != nil {
		obs.Emit(opt.Observer, obs.Event{Kind: obs.KindSpan, Phase: "treemap-assign",
			ElapsedMS: obs.Millis(time.Since(phase))})
		phase = time.Now()
	}
	improve(ctx, m, opt)
	if opt.Observer != nil {
		obs.Emit(opt.Observer, obs.Event{Kind: obs.KindSpan, Phase: "treemap-improve",
			Cost: m.Cost(), ElapsedMS: obs.Millis(time.Since(phase))})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// assign recursively splits nodes (given as original IDs with their induced
// subgraph implied) across the host vertices verts.
func assign(ctx context.Context, m *Mapping, sub *hypergraph.Hypergraph, orig []hypergraph.NodeID, verts []int, rng *rand.Rand) error {
	if ctx.Err() != nil {
		return fmt.Errorf("treemap: assignment interrupted: %w",
			errors.Join(anytime.ErrNoPartition, context.Cause(ctx)))
	}
	if len(verts) == 1 {
		for _, v := range orig {
			m.Host[v] = int32(verts[0])
		}
		return nil
	}
	// Pick the internal edge (within verts) that best balances capacity.
	inSet := map[int]bool{}
	for _, q := range verts {
		inSet[q] = true
	}
	var capTotal int64
	for _, q := range verts {
		capTotal += m.T.cap[q]
	}
	bestEdge, bestBal := -1, int64(1<<62-1)
	var bestSideA []int
	for ei := range m.T.edges {
		u, v := m.T.edges[ei][0], m.T.edges[ei][1]
		if !inSet[u] || !inSet[v] {
			continue
		}
		sideAll := m.T.sideOf(ei, u)
		var sideA []int
		var capA int64
		for _, q := range sideAll {
			if inSet[q] {
				sideA = append(sideA, q)
				capA += m.T.cap[q]
			}
		}
		bal := capTotal - 2*capA
		if bal < 0 {
			bal = -bal
		}
		if bal < bestBal {
			bestBal, bestEdge, bestSideA = bal, ei, sideA
		}
	}
	if bestEdge < 0 {
		return fmt.Errorf("treemap: vertex set %v has no internal edge", verts)
	}
	sideASet := map[int]bool{}
	var capA int64
	for _, q := range bestSideA {
		sideASet[q] = true
		capA += m.T.cap[q]
	}
	var sideB []int
	capB := capTotal - capA
	for _, q := range verts {
		if !sideASet[q] {
			sideB = append(sideB, q)
		}
	}

	total := sub.TotalSize()
	lb := total - capB // side A must absorb what B cannot
	if lb < 0 {
		lb = 0
	}
	ub := capA
	if ub > total {
		ub = total
	}
	if lb > ub {
		return fmt.Errorf("treemap: infeasible split (need %d..%d): %w", lb, ub, anytime.ErrInfeasible)
	}
	target := total * capA / capTotal
	if target < lb {
		target = lb
	}
	if target > ub {
		target = ub
	}
	var inA []bool
	if sub.NumNodes() > 0 {
		seed := hypergraph.NodeID(rng.Intn(sub.NumNodes()))
		inA = fm.GrowSeedSideCtx(ctx, sub, seed, target)
		fm.RefineBipartitionCtx(ctx, sub, inA, lb, ub)
		// Enforce the hard bounds if refinement could not.
		var sizeA int64
		for v := 0; v < sub.NumNodes(); v++ {
			if inA[v] {
				sizeA += sub.NodeSize(hypergraph.NodeID(v))
			}
		}
		for v := 0; v < sub.NumNodes() && sizeA > ub; v++ {
			if inA[v] {
				inA[v] = false
				sizeA -= sub.NodeSize(hypergraph.NodeID(v))
			}
		}
		for v := 0; v < sub.NumNodes() && sizeA < lb; v++ {
			if !inA[v] {
				inA[v] = true
				sizeA += sub.NodeSize(hypergraph.NodeID(v))
			}
		}
	}
	var aNodes, bNodes []hypergraph.NodeID
	var aOrig, bOrig []hypergraph.NodeID
	for v := 0; v < sub.NumNodes(); v++ {
		if inA[v] {
			aNodes = append(aNodes, hypergraph.NodeID(v))
			aOrig = append(aOrig, orig[v])
		} else {
			bNodes = append(bNodes, hypergraph.NodeID(v))
			bOrig = append(bOrig, orig[v])
		}
	}
	if len(aNodes) > 0 {
		subA, _, _ := sub.InducedSubgraph(aNodes)
		if err := assign(ctx, m, subA, aOrig, bestSideA, rng); err != nil {
			return err
		}
	}
	if len(bNodes) > 0 {
		subB, _, _ := sub.InducedSubgraph(bNodes)
		if err := assign(ctx, m, subB, bOrig, sideB, rng); err != nil {
			return err
		}
	}
	return nil
}

// improve greedily moves nodes to adjacent host vertices while the routing
// cost drops and capacities allow. Cancellation stops it mid-pass; the
// mapping stays valid at every step.
func improve(ctx context.Context, m *Mapping, opt Options) {
	load := make([]int64, m.T.NumVertices())
	for v := 0; v < m.H.NumNodes(); v++ {
		load[m.Host[v]] += m.H.NodeSize(hypergraph.NodeID(v))
	}
	for pass := 0; pass < opt.ImprovePasses && ctx.Err() == nil; pass++ {
		moved := false
		for v := 0; v < m.H.NumNodes(); v++ {
			if v&63 == 63 && ctx.Err() != nil {
				return
			}
			node := hypergraph.NodeID(v)
			cur := int(m.Host[v])
			var before float64
			for _, e := range m.H.Incident(node) {
				before += m.NetCost(e)
			}
			bestDelta := -1e-9
			bestQ := -1
			for _, ei := range m.T.adj[cur] {
				q := m.T.other(int(ei), cur)
				if load[q]+m.H.NodeSize(node) > m.T.cap[q] {
					continue
				}
				m.Host[v] = int32(q)
				var after float64
				for _, e := range m.H.Incident(node) {
					after += m.NetCost(e)
				}
				m.Host[v] = int32(cur)
				if d := after - before; d < bestDelta {
					bestDelta, bestQ = d, q
				}
			}
			if bestQ >= 0 {
				load[cur] -= m.H.NodeSize(node)
				load[bestQ] += m.H.NodeSize(node)
				m.Host[v] = int32(bestQ)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

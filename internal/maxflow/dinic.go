// Package maxflow implements Dinic's maximum-flow algorithm on directed
// networks, s-t minimum-cut extraction, and the standard hypergraph min-cut
// construction (net splitting, after Yang & Wong's flow-based partitioning).
// It is the module's classical network-flow substrate: the paper's approach
// is motivated by max-flow/min-cut duality, and the flow-based bipartition
// here serves as an ablation cut engine against the spreading-metric cuts.
package maxflow

import (
	"context"
	"fmt"
	"math"
)

// Inf is an effectively unbounded arc capacity.
var Inf = math.Inf(1)

type arc struct {
	to  int32
	rev int32 // index of the reverse arc in Network.arcs
	cap float64
}

// edge is one AddArc call.
type edge struct {
	u, v int32
	cap  float64
}

// Network is a directed flow network over vertices 0..n-1. Arcs carry
// residual capacities; AddArc records an arc and its zero-capacity
// reverse. MaxFlowCtx lays the arcs out vertex by vertex, each vertex's in
// the order AddArc gave them, so Dinic augments along the same paths as
// over per-vertex lists. A CutWorkspace resets its network between cuts
// and keeps every array, so a cut no larger than an earlier one allocates
// nothing. Arcs are added before MaxFlowCtx runs.
type Network struct {
	n     int
	edges []edge
	laid  bool
	off   []int32 // vertex v's arcs are arcs[off[v]:off[v+1]]
	arcs  []arc
	level []int32
	iter  []int32 // next arc of each vertex in the current phase
	queue []int32
	side  []bool
}

// NewNetwork returns an empty network with n vertices.
func NewNetwork(n int) *Network {
	nw := new(Network)
	nw.reset(n)
	return nw
}

// reset empties the network to n vertices and no arcs, keeping its arrays.
func (nw *Network) reset(n int) {
	nw.n, nw.edges, nw.laid = n, nw.edges[:0], false
}

// NumVertices reports the vertex count.
func (nw *Network) NumVertices() int { return nw.n }

// AddArc inserts a directed arc u->v with the given capacity (and its
// residual reverse v->u with capacity 0). Capacity must be non-negative.
func (nw *Network) AddArc(u, v int, capacity float64) {
	if capacity < 0 {
		panic("maxflow: negative capacity")
	}
	if u < 0 || u >= nw.n || v < 0 || v >= nw.n {
		panic(fmt.Sprintf("maxflow: arc %d->%d out of range [0,%d)", u, v, nw.n))
	}
	nw.edges = append(nw.edges, edge{u: int32(u), v: int32(v), cap: capacity})
}

// layout fills the per-vertex arc arrays from the recorded edges: an edge
// puts its forward arc next in u's range and its reverse next in v's.
func (nw *Network) layout() {
	n := nw.n
	nw.off = zeroed(nw.off, n+1)
	for _, e := range nw.edges {
		nw.off[e.u+1]++
		nw.off[e.v+1]++
	}
	for v := 0; v < n; v++ {
		nw.off[v+1] += nw.off[v]
	}
	nw.arcs = zeroed(nw.arcs, 2*len(nw.edges))
	next := zeroed(nw.iter, n)
	copy(next, nw.off[:n])
	for _, e := range nw.edges {
		fwd, back := next[e.u], next[e.v]
		if e.u == e.v {
			back++
		}
		next[e.u]++
		next[e.v]++
		nw.arcs[fwd] = arc{to: e.v, rev: back, cap: e.cap}
		nw.arcs[back] = arc{to: e.u, rev: fwd}
	}
	nw.iter = next
	nw.level = zeroed(nw.level, n)
	nw.laid = true
}

// out returns v's arcs.
func (nw *Network) out(v int32) []arc { return nw.arcs[nw.off[v]:nw.off[v+1]] }

// bfs builds the level graph for one Dinic phase. It polls ctx with the
// repo's masked-poll granularity (every 1024 dequeues) and reports false on
// cancellation — the phase loop above re-checks ctx to tell "no augmenting
// path" from "gave up".
func (nw *Network) bfs(ctx context.Context, s, t int) bool {
	level := nw.level
	for i := range level {
		level[i] = -1
	}
	queue := append(nw.queue[:0], int32(s))
	level[s] = 0
	for qi := 0; qi < len(queue); qi++ {
		if qi&1023 == 1023 && ctx.Err() != nil {
			nw.queue = queue
			return false
		}
		v := queue[qi]
		for _, a := range nw.out(v) {
			if a.cap > 0 && level[a.to] < 0 {
				level[a.to] = level[v] + 1
				queue = append(queue, a.to)
			}
		}
	}
	nw.queue = queue
	return level[t] >= 0
}

func (nw *Network) dfs(v, t int, f float64) float64 {
	if v == t {
		return f
	}
	for end := nw.off[v+1]; nw.iter[v] < end; nw.iter[v]++ {
		a := &nw.arcs[nw.iter[v]]
		if a.cap <= 0 || nw.level[a.to] != nw.level[v]+1 {
			continue
		}
		d := nw.dfs(int(a.to), t, math.Min(f, a.cap))
		if d > 0 {
			a.cap -= d
			nw.arcs[a.rev].cap += d
			return d
		}
	}
	return 0
}

// MaxFlowCtx pushes the maximum flow from s to t and returns its value. The
// network retains the residual state, which MinCutSide then reads. Each BFS
// level phase and the augmenting-path loop poll cancellation (masked, every
// ~1k queue pops / every 64 paths), so a dead context stops the computation
// within one bounded sweep instead of running all phases to completion. On
// cancellation it returns the flow pushed so far and an error wrapping the
// context cause; the residual state is then mid-phase, so MinCutSide must
// not be read as a minimum cut.
func (nw *Network) MaxFlowCtx(ctx context.Context, s, t int) (float64, error) {
	if s == t {
		panic("maxflow: source equals sink")
	}
	if !nw.laid {
		nw.layout()
	}
	var flow float64
	for {
		if err := ctx.Err(); err != nil {
			return flow, fmt.Errorf("maxflow: cancelled after %g units: %w", flow, context.Cause(ctx))
		}
		if !nw.bfs(ctx, s, t) {
			break
		}
		copy(nw.iter, nw.off[:nw.n])
		paths := 0
		for {
			if paths&63 == 63 && ctx.Err() != nil {
				return flow, fmt.Errorf("maxflow: cancelled after %g units: %w", flow, context.Cause(ctx))
			}
			paths++
			f := nw.dfs(s, t, Inf)
			if f == 0 {
				break
			}
			flow += f
			if math.IsInf(flow, 1) {
				return flow, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return flow, fmt.Errorf("maxflow: cancelled after %g units: %w", flow, context.Cause(ctx))
	}
	return flow, nil
}

// MinCutSide returns, after MaxFlowCtx, the set of vertices reachable from s
// in the residual network — the source side of a minimum s-t cut — as a
// boolean membership vector. The vector belongs to the network and is
// valid until its next MinCutSide.
func (nw *Network) MinCutSide(s int) []bool {
	side := zeroed(nw.side, nw.n)
	queue := append(nw.queue[:0], int32(s))
	side[s] = true
	// Grow-in-place sweep: each vertex enqueues at most once, so the scan
	// is bounded by |V| and needs no cancellation checkpoint.
	for qi := 0; qi < len(queue); qi++ {
		for _, a := range nw.out(queue[qi]) {
			if a.cap > 0 && !side[a.to] {
				side[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	nw.side, nw.queue = side, queue
	return side
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

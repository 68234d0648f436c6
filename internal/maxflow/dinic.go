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
	rev int32 // index of the reverse arc in arcs[to]
	cap float64
}

// Network is a directed flow network over vertices 0..n-1. Arcs carry
// residual capacities; AddArc creates the arc and its zero-capacity reverse.
type Network struct {
	arcs  [][]arc
	level []int32
	iter  []int32
}

// NewNetwork returns an empty network with n vertices.
func NewNetwork(n int) *Network {
	return &Network{
		arcs:  make([][]arc, n),
		level: make([]int32, n),
		iter:  make([]int32, n),
	}
}

// NumVertices reports the vertex count.
func (nw *Network) NumVertices() int { return len(nw.arcs) }

// AddArc inserts a directed arc u->v with the given capacity (and its
// residual reverse v->u with capacity 0). Capacity must be non-negative.
func (nw *Network) AddArc(u, v int, capacity float64) {
	if capacity < 0 {
		panic("maxflow: negative capacity")
	}
	nw.arcs[u] = append(nw.arcs[u], arc{to: int32(v), rev: int32(len(nw.arcs[v])), cap: capacity})
	nw.arcs[v] = append(nw.arcs[v], arc{to: int32(u), rev: int32(len(nw.arcs[u]) - 1), cap: 0})
}

// bfs builds the level graph for one Dinic phase. It polls ctx with the
// repo's masked-poll granularity (every 1024 dequeues) and reports false on
// cancellation — the phase loop above re-checks ctx to tell "no augmenting
// path" from "gave up".
func (nw *Network) bfs(ctx context.Context, s, t int) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	queue := make([]int32, 0, len(nw.arcs))
	nw.level[s] = 0
	queue = append(queue, int32(s))
	pops := 0
	for len(queue) > 0 {
		if pops&1023 == 1023 && ctx.Err() != nil {
			return false
		}
		pops++
		v := queue[0]
		queue = queue[1:]
		for _, a := range nw.arcs[v] {
			if a.cap > 0 && nw.level[a.to] < 0 {
				nw.level[a.to] = nw.level[v] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return nw.level[t] >= 0
}

func (nw *Network) dfs(v, t int, f float64) float64 {
	if v == t {
		return f
	}
	for ; nw.iter[v] < int32(len(nw.arcs[v])); nw.iter[v]++ {
		a := &nw.arcs[v][nw.iter[v]]
		if a.cap <= 0 || nw.level[a.to] != nw.level[v]+1 {
			continue
		}
		d := nw.dfs(int(a.to), t, math.Min(f, a.cap))
		if d > 0 {
			a.cap -= d
			nw.arcs[a.to][a.rev].cap += d
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
	var flow float64
	for {
		if err := ctx.Err(); err != nil {
			return flow, fmt.Errorf("maxflow: cancelled after %g units: %w", flow, context.Cause(ctx))
		}
		if !nw.bfs(ctx, s, t) {
			break
		}
		for i := range nw.iter {
			nw.iter[i] = 0
		}
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
// boolean membership vector.
func (nw *Network) MinCutSide(s int) []bool {
	side := make([]bool, len(nw.arcs))
	queue := []int32{int32(s)}
	side[s] = true
	// Grow-in-place sweep: each vertex enqueues at most once, so the scan
	// is bounded by |V| and needs no cancellation checkpoint.
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, a := range nw.arcs[v] {
			if a.cap > 0 && !side[a.to] {
				side[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	return side
}

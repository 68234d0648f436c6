package shortest

import (
	"math"

	"repro/internal/graph"
	"repro/internal/pqueue"
)

// Test oracles for the growers: textbook Dijkstra, Bellman-Ford and
// Floyd-Warshall over plain weighted graphs. HyperSPT's distances are
// checked against Dijkstra on the nets' pair expansion, and Dijkstra
// against the other two.

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// Result holds the output of a single-source computation on a graph.
type Result struct {
	Source int
	// Dist[v] is the shortest distance from Source to v, Inf if unreachable.
	Dist []float64
	// Parent[v] is the predecessor of v on a shortest path, -1 for the
	// source and unreachable vertices.
	Parent []int
	// ParentEdge[v] is the index of the edge connecting Parent[v] to v,
	// -1 where Parent is -1.
	ParentEdge []int
}

// PathTo reconstructs the vertex sequence of a shortest path from the source
// to v, or nil if v is unreachable.
func (r *Result) PathTo(v int) []int {
	if r.Dist[v] == Inf {
		return nil
	}
	var rev []int
	for u := v; u != -1; u = r.Parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Dijkstra computes shortest paths from source over edge weights
// (which must be non-negative; graph.AddEdge enforces this).
func Dijkstra(g *graph.Graph, source int) *Result {
	n := g.NumVertices()
	r := &Result{
		Source:     source,
		Dist:       make([]float64, n),
		Parent:     make([]int, n),
		ParentEdge: make([]int, n),
	}
	for v := 0; v < n; v++ {
		r.Dist[v] = Inf
		r.Parent[v] = -1
		r.ParentEdge[v] = -1
	}
	r.Dist[source] = 0
	h := pqueue.New(n)
	h.Push(source, 0)
	done := make([]bool, n)
	for h.Len() > 0 {
		v, dv := h.Pop()
		if done[v] {
			continue
		}
		done[v] = true
		for _, ei := range g.IncidentEdges(v) {
			e := g.Edge(int(ei))
			u := g.Other(int(ei), v)
			if done[u] {
				continue
			}
			nd := dv + e.Weight
			if nd < r.Dist[u] {
				r.Dist[u] = nd
				r.Parent[u] = v
				r.ParentEdge[u] = int(ei)
				h.PushOrDecrease(u, nd)
			}
		}
	}
	return r
}

// BellmanFord computes shortest paths from source by edge relaxation; it is
// O(n·m) and exists as a test oracle for Dijkstra. Negative weights are not
// possible in this module (graph enforces non-negative), so no negative-cycle
// detection is needed.
func BellmanFord(g *graph.Graph, source int) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = Inf
	}
	dist[source] = 0
	edges := g.Edges()
	for i := 0; i < n-1; i++ {
		changed := false
		for _, e := range edges {
			if dist[e.U]+e.Weight < dist[e.V] {
				dist[e.V] = dist[e.U] + e.Weight
				changed = true
			}
			if dist[e.V]+e.Weight < dist[e.U] {
				dist[e.U] = dist[e.V] + e.Weight
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// FloydWarshall computes all-pairs shortest distances; O(n^3), test oracle
// only.
func FloydWarshall(g *graph.Graph) [][]float64 {
	n := g.NumVertices()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = Inf
			}
		}
	}
	for _, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		if e.Weight < d[e.U][e.V] {
			d[e.U][e.V] = e.Weight
			d[e.V][e.U] = e.Weight
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik == Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := dik + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

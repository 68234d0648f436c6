package shortest

import (
	"math"

	"repro/internal/pqueue"
)

// Test oracles for the growers: textbook Dijkstra, Bellman-Ford and
// Floyd-Warshall over plain weighted graphs. HyperSPT's distances are
// checked against Dijkstra on the nets' pair expansion, and Dijkstra
// against the other two.

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// edge is an undirected edge of a graph with a non-negative weight.
type edge struct {
	u, v int
	w    float64
}

// graph is a weighted undirected multigraph on vertices 0..n-1. An edge is
// stored once and listed by index at both endpoints (once for a
// self-loop).
type graph struct {
	edges []edge
	adj   [][]int
}

func newGraph(n int) *graph { return &graph{adj: make([][]int, n)} }

func (g *graph) numVertices() int { return len(g.adj) }

func (g *graph) addEdge(u, v int, w float64) {
	i := len(g.edges)
	g.edges = append(g.edges, edge{u, v, w})
	g.adj[u] = append(g.adj[u], i)
	if v != u {
		g.adj[v] = append(g.adj[v], i)
	}
}

// other returns the endpoint of edge i that is not v (v for a self-loop).
func (g *graph) other(i, v int) int {
	e := g.edges[i]
	if e.u == v {
		return e.v
	}
	return e.u
}

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

// Dijkstra computes shortest paths from source over edge weights, which
// must be non-negative.
func Dijkstra(g *graph, source int) *Result {
	n := g.numVertices()
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
		for _, ei := range g.adj[v] {
			u := g.other(ei, v)
			if done[u] {
				continue
			}
			nd := dv + g.edges[ei].w
			if nd < r.Dist[u] {
				r.Dist[u] = nd
				r.Parent[u] = v
				r.ParentEdge[u] = ei
				h.PushOrDecrease(u, nd)
			}
		}
	}
	return r
}

// BellmanFord computes shortest paths from source by edge relaxation; it is
// O(n·m) and exists as a test oracle for Dijkstra. Weights are
// non-negative, so no negative-cycle detection is needed.
func BellmanFord(g *graph, source int) []float64 {
	n := g.numVertices()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = Inf
	}
	dist[source] = 0
	for i := 0; i < n-1; i++ {
		changed := false
		for _, e := range g.edges {
			if dist[e.u]+e.w < dist[e.v] {
				dist[e.v] = dist[e.u] + e.w
				changed = true
			}
			if dist[e.v]+e.w < dist[e.u] {
				dist[e.u] = dist[e.v] + e.w
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
func FloydWarshall(g *graph) [][]float64 {
	n := g.numVertices()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = Inf
			}
		}
	}
	for _, e := range g.edges {
		if e.u == e.v {
			continue
		}
		if e.w < d[e.u][e.v] {
			d[e.u][e.v] = e.w
			d[e.v][e.u] = e.w
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

package hypergraph

import "repro/internal/graph"

// CliqueExpansion converts the hypergraph to a weighted undirected graph by
// replacing each net e with a clique over its pins. Each clique edge gets
// weight c(e)/(|e|-1), the standard normalization that makes cutting a net
// in two cost approximately c(e) regardless of cardinality. The returned
// netOf maps each graph edge index back to the originating net.
func (h *Hypergraph) CliqueExpansion() (g *graph.Graph, netOf []NetID) {
	g = graph.New(h.NumNodes())
	for e := 0; e < h.NumNets(); e++ {
		ps := h.Pins(NetID(e))
		w := h.netCaps[e] / float64(len(ps)-1)
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				g.AddEdge(int(ps[i]), int(ps[j]), w)
				netOf = append(netOf, NetID(e))
			}
		}
	}
	return g, netOf
}

// StarExpansion converts the hypergraph to a weighted undirected graph by
// introducing one auxiliary star vertex per net: vertices 0..n-1 are the
// original nodes and vertex n+e is the star center of net e. Each pin
// connects to its star center with weight c(e). The returned netOf maps each
// graph edge index back to its net.
func (h *Hypergraph) StarExpansion() (g *graph.Graph, netOf []NetID) {
	n := h.NumNodes()
	g = graph.New(n + h.NumNets())
	for e := 0; e < h.NumNets(); e++ {
		for _, v := range h.Pins(NetID(e)) {
			g.AddEdge(int(v), n+e, h.netCaps[e])
			netOf = append(netOf, NetID(e))
		}
	}
	return g, netOf
}

// CutCapacity returns the total capacity of nets crossing the bipartition
// given by inA (nets with pins both inside and outside), together with the
// number of crossing nets.
func (h *Hypergraph) CutCapacity(inA []bool) (capacity float64, nets int) {
	for e := 0; e < h.NumNets(); e++ {
		var sawA, sawB bool
		for _, v := range h.Pins(NetID(e)) {
			if inA[v] {
				sawA = true
			} else {
				sawB = true
			}
			if sawA && sawB {
				capacity += h.netCaps[e]
				nets++
				break
			}
		}
	}
	return capacity, nets
}

// ExternalDegree returns, for each node, the total capacity of its incident
// nets — a cheap upper bound on how much cut a single node can contribute,
// used by partitioners for gain bounds.
func (h *Hypergraph) ExternalDegree() []float64 {
	deg := make([]float64, h.NumNodes())
	for e := 0; e < h.NumNets(); e++ {
		for _, v := range h.Pins(NetID(e)) {
			deg[v] += h.netCaps[e]
		}
	}
	return deg
}

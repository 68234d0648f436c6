package verify

import (
	"fmt"
	"math/rand"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
)

// Metamorphic transforms: instance rewrites that must leave hierarchical
// costs invariant. A partition's cost depends only on which nodes share
// which nets and blocks, so relabeling nodes or nets, shuffling pin order
// within a net, and rescaling all capacities by λ (cost scales by exactly λ)
// are equivariances of every evaluator in the repository. This package's
// tests and its fuzz target FuzzEvalEquivariance drive instances through
// these transforms and demand bit-for-bit equal costs — exact as long as the
// weights and capacities are integer-valued (or λ a power of two), since the
// per-net terms are then exactly representable and their sums reorder
// without rounding.

// RelabelNodes rebuilds h with node IDs permuted: new node perm[v] is old
// node v. Net order and pin order are preserved (pins are rewritten through
// the permutation).
func RelabelNodes(h *hypergraph.Hypergraph, perm []int) (*hypergraph.Hypergraph, error) {
	n := h.NumNodes()
	if err := checkPerm(perm, n); err != nil {
		return nil, fmt.Errorf("verify: node permutation: %w", err)
	}
	inv := make([]int, n) // inv[mapped] = old
	for old, mapped := range perm {
		inv[mapped] = old
	}
	b := hypergraph.NewBuilder()
	for v := 0; v < n; v++ {
		old := hypergraph.NodeID(inv[v])
		b.AddNode(h.NodeName(old), h.NodeSize(old))
	}
	for e := 0; e < h.NumNets(); e++ {
		pins := h.Pins(hypergraph.NetID(e))
		mapped := make([]hypergraph.NodeID, len(pins))
		for i, v := range pins {
			mapped[i] = hypergraph.NodeID(perm[v])
		}
		b.AddNet(h.NetName(hypergraph.NetID(e)), h.NetCapacity(hypergraph.NetID(e)), mapped...)
	}
	return b.Build()
}

// RelabelNets rebuilds h with net IDs permuted: new net perm[e] is old net
// e. Nodes and pin order are untouched.
func RelabelNets(h *hypergraph.Hypergraph, perm []int) (*hypergraph.Hypergraph, error) {
	m := h.NumNets()
	if err := checkPerm(perm, m); err != nil {
		return nil, fmt.Errorf("verify: net permutation: %w", err)
	}
	inv := make([]int, m)
	for old, mapped := range perm {
		inv[mapped] = old
	}
	b := hypergraph.NewBuilder()
	for v := 0; v < h.NumNodes(); v++ {
		b.AddNode(h.NodeName(hypergraph.NodeID(v)), h.NodeSize(hypergraph.NodeID(v)))
	}
	for e := 0; e < m; e++ {
		old := hypergraph.NetID(inv[e])
		b.AddNet(h.NetName(old), h.NetCapacity(old), h.Pins(old)...)
	}
	return b.Build()
}

// ShufflePins rebuilds h with the pin order inside every net permuted by
// rng. Spans are sets, so no evaluator may care.
func ShufflePins(h *hypergraph.Hypergraph, rng *rand.Rand) (*hypergraph.Hypergraph, error) {
	b := hypergraph.NewBuilder()
	for v := 0; v < h.NumNodes(); v++ {
		b.AddNode(h.NodeName(hypergraph.NodeID(v)), h.NodeSize(hypergraph.NodeID(v)))
	}
	for e := 0; e < h.NumNets(); e++ {
		pins := append([]hypergraph.NodeID(nil), h.Pins(hypergraph.NetID(e))...)
		rng.Shuffle(len(pins), func(i, j int) { pins[i], pins[j] = pins[j], pins[i] })
		b.AddNet(h.NetName(hypergraph.NetID(e)), h.NetCapacity(hypergraph.NetID(e)), pins...)
	}
	return b.Build()
}

// ScaleCapacities rebuilds h with every net capacity multiplied by factor;
// all costs scale by exactly factor (bit-for-bit when factor is a power of
// two).
func ScaleCapacities(h *hypergraph.Hypergraph, factor float64) (*hypergraph.Hypergraph, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("verify: capacity scale factor %g must be positive", factor)
	}
	b := hypergraph.NewBuilder()
	for v := 0; v < h.NumNodes(); v++ {
		b.AddNode(h.NodeName(hypergraph.NodeID(v)), h.NodeSize(hypergraph.NodeID(v)))
	}
	for e := 0; e < h.NumNets(); e++ {
		b.AddNet(h.NetName(hypergraph.NetID(e)), h.NetCapacity(hypergraph.NetID(e))*factor,
			h.Pins(hypergraph.NetID(e))...)
	}
	return b.Build()
}

// MapPartition carries a partition of h over to a node-relabeled instance
// relabeled (built with RelabelNodes(h, perm)): the tree is cloned and new
// node perm[v] inherits old node v's leaf. The two partitions must have
// bit-for-bit equal costs when capacities and weights are integer-valued.
func MapPartition(p *hierarchy.Partition, relabeled *hypergraph.Hypergraph, perm []int) (*hierarchy.Partition, error) {
	if relabeled.NumNodes() != p.H.NumNodes() {
		return nil, fmt.Errorf("verify: relabeled instance has %d nodes, partition covers %d",
			relabeled.NumNodes(), p.H.NumNodes())
	}
	if err := checkPerm(perm, p.H.NumNodes()); err != nil {
		return nil, fmt.Errorf("verify: node permutation: %w", err)
	}
	q := p.Clone()
	q.H = relabeled
	for old, leaf := range p.LeafOf {
		q.LeafOf[perm[old]] = leaf
	}
	return q, nil
}

// checkPerm verifies perm is a permutation of 0..n-1.
func checkPerm(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for i, v := range perm {
		if v < 0 || v >= n {
			return fmt.Errorf("entry %d = %d out of range", i, v)
		}
		if seen[v] {
			return fmt.Errorf("entry %d = %d repeated", i, v)
		}
		seen[v] = true
	}
	return nil
}

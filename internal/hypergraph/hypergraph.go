// Package hypergraph models circuit netlists as hypergraphs: nodes (cells)
// with sizes and nets (hyperedges) with capacities, connected by pins. It is
// the input representation for every partitioning algorithm in this module
// and provides the structural operations they need — induced subgraphs,
// connected components, cluster contraction, cut capacity, statistics, and
// a simple hMETIS-style text format.
//
// Terminology follows Kuo & Cheng (DAC'97): a hypergraph H = (V, E) has
// |V| = n nodes, |E| = m nets, and p total pins; node v has size s(v) and
// net e has capacity c(e).
package hypergraph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// NodeID identifies a node (cell). IDs are dense: 0..NumNodes-1.
type NodeID int32

// NetID identifies a net (hyperedge). IDs are dense: 0..NumNets-1.
type NetID int32

// Hypergraph is an immutable-after-build netlist. Construct one with a
// Builder; the zero value is an empty hypergraph.
//
// Pins and incidence live in two arenas indexed by offset arrays: net e's
// pins are pins[pinOff[e]:pinOff[e+1]] and node v's nets are
// incident[incOff[v]:incOff[v+1]]. pinOff is empty while there are no
// nets. A name slice is nil while every name in it is empty, so an
// unnamed netlist stores no names.
type Hypergraph struct {
	nodeNames []string
	nodeSizes []int64
	netNames  []string
	netCaps   []float64
	pins      []NodeID
	pinOff    []int32
	incident  []NetID
	incOff    []int32
	totalSize int64
}

// NumNodes reports n, the number of nodes.
func (h *Hypergraph) NumNodes() int { return len(h.nodeSizes) }

// NumNets reports m, the number of nets.
func (h *Hypergraph) NumNets() int { return len(h.netCaps) }

// NumPins reports p, the total number of pins (sum of net cardinalities).
func (h *Hypergraph) NumPins() int { return len(h.pins) }

// NodeSize returns s(v).
func (h *Hypergraph) NodeSize(v NodeID) int64 { return h.nodeSizes[v] }

// TotalSize returns s(V), the sum of all node sizes.
func (h *Hypergraph) TotalSize() int64 { return h.totalSize }

// NetCapacity returns c(e).
func (h *Hypergraph) NetCapacity(e NetID) float64 { return h.netCaps[e] }

// NodeName returns the name of v ("" if unnamed).
func (h *Hypergraph) NodeName(v NodeID) string { return nameAt(h.nodeNames, int(v)) }

// NetName returns the name of e ("" if unnamed).
func (h *Hypergraph) NetName(e NetID) string { return nameAt(h.netNames, int(e)) }

// nameAt reads entry i of a name slice that is nil when every name is
// empty.
func nameAt(names []string, i int) string {
	if names == nil {
		return ""
	}
	return names[i]
}

// addName appends entry i to a name slice that stays nil while every name
// is empty. The first non-empty name fills in the empty ones before it, in
// a slice as long as capHint (the capacity of the sizes or capacities
// beside it), so a named graph's reserve still holds.
func addName(names []string, i int, name string, capHint int) []string {
	if names == nil {
		if name == "" {
			return nil
		}
		names = make([]string, i, max(capHint, i+1))
	}
	return append(names, name)
}

// Pins returns the nodes on net e. The slice is owned by the hypergraph and
// must not be modified. Its capacity ends with the net, so an append to it
// copies instead of overwriting the next net's pins.
func (h *Hypergraph) Pins(e NetID) []NodeID {
	lo, hi := h.pinOff[e], h.pinOff[e+1]
	return h.pins[lo:hi:hi]
}

// Incident returns the nets containing node v, in ascending order. The
// slice is owned by the hypergraph and must not be modified; like Pins, it
// is capped at its own end.
func (h *Hypergraph) Incident(v NodeID) []NetID {
	lo, hi := h.incOff[v], h.incOff[v+1]
	return h.incident[lo:hi:hi]
}

// PinArena returns every net's pins in one arena: net e's pins are
// pins[off[e]:off[e+1]], the slice Pins(e) returns. Both slices are owned by
// the hypergraph and must not be modified. Loops that visit many nets read
// them here once instead of re-slicing through h per net.
func (h *Hypergraph) PinArena() (off []int32, pins []NodeID) { return h.pinOff, h.pins }

// IncidenceArena is PinArena for incidence: node v's nets are
// nets[off[v]:off[v+1]], the slice Incident(v) returns.
func (h *Hypergraph) IncidenceArena() (off []int32, nets []NetID) { return h.incOff, h.incident }

// Degree returns the number of nets incident to v.
func (h *Hypergraph) Degree(v NodeID) int { return int(h.incOff[v+1] - h.incOff[v]) }

// Validate checks internal consistency and the structural rules of a
// netlist hypergraph: every pin references a valid node, nets have
// cardinality >= 2 (per the paper's definition |e| >= 2), no net lists the
// same node twice, sizes are positive and capacities non-negative, and the
// node->net incidence agrees with the net->node pin lists.
func (h *Hypergraph) Validate() error {
	n, m := h.NumNodes(), h.NumNets()
	for v := 0; v < n; v++ {
		if h.nodeSizes[v] <= 0 {
			return fmt.Errorf("hypergraph: node %d has non-positive size %d", v, h.nodeSizes[v])
		}
	}
	stamp := make([]int32, n) // 1 + the last net that listed v
	pinTotal := 0
	for e := 0; e < m; e++ {
		ps := h.Pins(NetID(e))
		if len(ps) < 2 {
			return fmt.Errorf("hypergraph: net %d has cardinality %d < 2", e, len(ps))
		}
		if !(h.netCaps[e] >= 0) || math.IsInf(h.netCaps[e], 1) {
			// The negated form also rejects NaN, which compares false to
			// everything and would sail through a plain `< 0` check.
			return fmt.Errorf("hypergraph: net %d has non-finite or negative capacity %g", e, h.netCaps[e])
		}
		for _, v := range ps {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("hypergraph: net %d pin references node %d out of range", e, v)
			}
			if stamp[v] == int32(e+1) {
				return fmt.Errorf("hypergraph: net %d lists node %d twice", e, v)
			}
			stamp[v] = int32(e + 1)
		}
		pinTotal += len(ps)
	}
	if pinTotal != len(h.pins) {
		return fmt.Errorf("hypergraph: pin count %d does not match pin lists (%d)", len(h.pins), pinTotal)
	}
	// Cross-check incidence, counting each node's pins in the stamp slice.
	count := stamp
	clear(count)
	for _, v := range h.pins {
		count[v]++
	}
	for v := 0; v < n; v++ {
		if int(count[v]) != h.Degree(NodeID(v)) {
			return fmt.Errorf("hypergraph: node %d incidence length %d, expected %d",
				v, h.Degree(NodeID(v)), count[v])
		}
	}
	return nil
}

// Clone returns a deep copy.
func (h *Hypergraph) Clone() *Hypergraph {
	c := &Hypergraph{
		nodeNames: append([]string(nil), h.nodeNames...),
		nodeSizes: append([]int64(nil), h.nodeSizes...),
		netNames:  append([]string(nil), h.netNames...),
		netCaps:   append([]float64(nil), h.netCaps...),
		pins:      append([]NodeID(nil), h.pins...),
		pinOff:    append([]int32(nil), h.pinOff...),
		incident:  append([]NetID(nil), h.incident...),
		incOff:    append([]int32(nil), h.incOff...),
		totalSize: h.totalSize,
	}
	return c
}

// Builder accumulates nodes and nets and produces a validated Hypergraph.
// Nets go into one pin arena, as in the Hypergraph it builds.
type Builder struct {
	nodeNames []string
	nodeSizes []int64
	netNames  []string
	netCaps   []float64
	pins      []NodeID
	pinOff    []int32 // net e's pins are pins[pinOff[e]:pinOff[e+1]]
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// reserve makes room for nodes more nodes, nets more nets and pins more
// pins, so a caller that knows upper bounds fills every array without
// regrowing it. Names take room only once one is non-empty (addName).
func (b *Builder) reserve(nodes, nets, pins int) {
	b.nodeSizes = slices.Grow(b.nodeSizes, nodes)
	b.netCaps = slices.Grow(b.netCaps, nets)
	b.pinOff = slices.Grow(b.pinOff, nets+1)
	b.pins = slices.Grow(b.pins, pins)
}

// AddNode appends a node with the given name and size and returns its ID.
// Size must be positive.
func (b *Builder) AddNode(name string, size int64) NodeID {
	if size <= 0 {
		panic("hypergraph: node size must be positive")
	}
	id := NodeID(len(b.nodeSizes))
	b.nodeNames = addName(b.nodeNames, int(id), name, cap(b.nodeSizes))
	b.nodeSizes = append(b.nodeSizes, size)
	return id
}

// AddUnitNodes appends count unnamed nodes of size 1 and returns the ID of
// the first.
func (b *Builder) AddUnitNodes(count int) NodeID {
	first := NodeID(len(b.nodeSizes))
	for i := 0; i < count; i++ {
		b.AddNode("", 1)
	}
	return first
}

// AddNet appends a net with the given name, capacity, and pins and returns
// its ID. The pins are copied, so the caller may reuse its slice. Nets with
// fewer than 2 distinct pins, duplicate pins within a net, and non-finite
// capacities are all rejected at Build time (via Validate).
func (b *Builder) AddNet(name string, capacity float64, pins ...NodeID) NetID {
	b.pins = append(b.pins, pins...)
	return b.endNet(name, capacity)
}

// endNet closes a net over the pins appended to the arena since the
// previous net.
func (b *Builder) endNet(name string, capacity float64) NetID {
	if len(b.pinOff) == 0 {
		b.pinOff = append(b.pinOff, 0)
	}
	id := NetID(len(b.netCaps))
	b.netNames = addName(b.netNames, int(id), name, cap(b.netCaps))
	b.netCaps = append(b.netCaps, capacity)
	b.pinOff = append(b.pinOff, int32(len(b.pins)))
	return id
}

// NumNodes reports the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodeSizes) }

// Build finalizes the hypergraph, computing incidence lists, and validates
// it.
func (b *Builder) Build() (*Hypergraph, error) {
	if len(b.pins) > math.MaxInt32 {
		return nil, fmt.Errorf("hypergraph: %d pins exceed the limit of %d", len(b.pins), math.MaxInt32)
	}
	n := len(b.nodeSizes)
	h := &Hypergraph{
		nodeNames: b.nodeNames,
		nodeSizes: b.nodeSizes,
		netNames:  b.netNames,
		netCaps:   b.netCaps,
		pins:      b.pins,
		pinOff:    b.pinOff,
		incident:  make([]NetID, len(b.pins)),
		incOff:    make([]int32, n+1),
	}
	// Counting pass: incOff[v+1] = degree of v, then the start of v's list.
	for e := 0; e < h.NumNets(); e++ {
		for _, v := range h.Pins(NetID(e)) {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("hypergraph: net %d references node %d out of range", e, v)
			}
			h.incOff[v+1]++
		}
	}
	var start int32
	for v := 1; v <= n; v++ {
		deg := h.incOff[v]
		h.incOff[v] = start
		start += deg
	}
	// Fill in ascending net order; each incOff[v+1] advances from the start
	// of v's list to its end, which is where v+1's list starts.
	for e := 0; e < h.NumNets(); e++ {
		for _, v := range h.Pins(NetID(e)) {
			h.incident[h.incOff[v+1]] = NetID(e)
			h.incOff[v+1]++
		}
	}
	for _, s := range h.nodeSizes {
		h.totalSize += s
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// MustBuild is Build but panics on error; intended for tests and literals.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// Components returns the connected components of the hypergraph (nodes
// connected through shared nets), each sorted ascending, ordered by smallest
// member.
func (h *Hypergraph) Components() [][]NodeID {
	n := h.NumNodes()
	seen := make([]bool, n)
	netSeen := make([]bool, h.NumNets())
	var comps [][]NodeID
	stack := make([]NodeID, 0, n)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		stack = append(stack[:0], NodeID(s))
		var comp []NodeID
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, e := range h.Incident(v) {
				if netSeen[e] {
					continue
				}
				netSeen[e] = true
				for _, u := range h.Pins(e) {
					if !seen[u] {
						seen[u] = true
						stack = append(stack, u)
					}
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// InducedSubgraph returns the subhypergraph induced by the given node set:
// the nodes keep their sizes and names; each net is restricted to its pins
// inside the set and kept only if at least 2 pins remain, with its name.
// An unnamed input gives an unnamed subgraph, which stores no names. It
// also returns the mapping from new node IDs to original node IDs and from
// new net IDs to original net IDs. Each call builds a full copy, so
// Algorithm 3's carve asks only for the pieces a level below reads.
func (h *Hypergraph) InducedSubgraph(nodes []NodeID) (sub *Hypergraph, nodeMap []NodeID, netMap []NetID) {
	inv := make([]NodeID, h.NumNodes()) // 1 + new ID, 0 outside the set
	for i, v := range nodes {
		if inv[v] != 0 {
			panic("hypergraph: duplicate node in InducedSubgraph")
		}
		inv[v] = NodeID(i + 1)
	}
	// Visit each candidate net once, in ascending net ID order.
	netSeen := make([]bool, h.NumNets())
	var cand []NetID
	candPins := 0
	for _, v := range nodes {
		for _, e := range h.Incident(v) {
			if !netSeen[e] {
				netSeen[e] = true
				cand = append(cand, e)
				candPins += int(h.pinOff[e+1] - h.pinOff[e])
			}
		}
	}
	slices.Sort(cand)
	b := NewBuilder()
	b.reserve(len(nodes), len(cand), candPins)
	nodeMap = make([]NodeID, 0, len(nodes))
	for _, v := range nodes {
		b.AddNode(h.NodeName(v), h.nodeSizes[v])
		nodeMap = append(nodeMap, v)
	}
	var inside []NodeID
	for _, e := range cand {
		inside = inside[:0]
		for _, u := range h.Pins(e) {
			if nu := inv[u]; nu != 0 {
				inside = append(inside, nu-1)
			}
		}
		if len(inside) >= 2 {
			b.AddNet(h.NetName(e), h.netCaps[e], inside...)
			netMap = append(netMap, e)
		}
	}
	sub, err := b.Build()
	if err != nil {
		panic(err) // induced subgraphs of valid hypergraphs are valid
	}
	return sub, nodeMap, netMap
}

// ContractDedup collapses clusters of nodes into single nodes, as a
// multilevel coarsener needs. clusterOf[v] gives the cluster index of node
// v; cluster indices must be dense 0..k-1, and every cluster non-empty. The
// contracted node's size is the sum of its members' sizes. Each net maps to
// the set of distinct clusters it touches, and two reductions keep pin
// counts shrinking level over level:
//
//   - nets whose pins collapse into fewer than 2 distinct clusters
//     disappear;
//   - nets that collapse onto the same cluster set merge into one net whose
//     capacity is the sum of the merged capacities.
//
// The merge is cost-exact: two nets with identical pin sets have identical
// spans in every partition, so Σ_l w_l·span·(c_1+c_2) equals the sum of
// their individual costs. Without it, contraction preserves every parallel
// net forever — after a few levels a coarse graph of a few hundred nodes can
// still drag the fine graph's full net and pin population behind it, and a
// deep level stack multiplies that into an allocation blow-up (see the
// regression test TestContractDedupPinShrink).
//
// The merged net keeps the first contributing net's name, and its
// capacity sums the contributors in fine net order. Cluster pin order
// within a net is ascending, and net order follows the first contributing
// fine net, so the result is deterministic. Coarse nodes are unnamed.
//
// Identical cluster sets are found through an open-addressing table of
// coarse net IDs keyed by a 64-bit hash of the sorted cluster list. A hash
// hit is confirmed by comparing the candidate's pin window in the
// builder's arena, so a collision costs a comparison, never a wrong merge.
// A counting pass sizes the builder for the nets and pins that survive the
// first reduction.
func (h *Hypergraph) ContractDedup(clusterOf []int, k int) (*Hypergraph, error) {
	if len(clusterOf) != h.NumNodes() {
		return nil, fmt.Errorf("hypergraph: clusterOf has %d entries, want %d", len(clusterOf), h.NumNodes())
	}
	sizes := make([]int64, k)
	for v, c := range clusterOf {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("hypergraph: node %d has cluster %d out of range [0,%d)", v, c, k)
		}
		sizes[c] += h.nodeSizes[v]
	}
	// stamp[c] == e+1 marks cluster c as touched by net e.
	stamp := make([]int32, k)
	nets, pins := 0, 0
	for e := 0; e < h.NumNets(); e++ {
		distinct := 0
		for _, v := range h.Pins(NetID(e)) {
			if c := clusterOf[v]; stamp[c] != int32(e+1) {
				stamp[c] = int32(e + 1)
				distinct++
			}
		}
		if distinct >= 2 {
			nets++
			pins += distinct
		}
	}
	b := NewBuilder()
	b.reserve(k, nets, pins)
	for c := 0; c < k; c++ {
		if sizes[c] == 0 {
			return nil, fmt.Errorf("hypergraph: cluster %d is empty", c)
		}
		b.AddNode("", sizes[c])
	}
	ix := newNetIndex(nets)
	clear(stamp)
	var touched []NodeID
	for e := 0; e < h.NumNets(); e++ {
		touched = touched[:0]
		for _, v := range h.Pins(NetID(e)) {
			if c := clusterOf[v]; stamp[c] != int32(e+1) {
				stamp[c] = int32(e + 1)
				touched = append(touched, NodeID(c))
			}
		}
		if len(touched) < 2 {
			continue
		}
		slices.Sort(touched)
		slot, hash := ix.find(b, touched)
		if id := ix.ids[slot]; id != 0 {
			b.netCaps[id-1] += h.netCaps[e]
			continue
		}
		ix.ids[slot] = int32(b.AddNet(h.NetName(NetID(e)), h.netCaps[e], touched...)) + 1
		ix.hashes = append(ix.hashes, hash)
	}
	return b.Build()
}

// netIndex is ContractDedup's identical-net index: an open-addressing
// table of 1 + coarse NetID (0 is an empty slot), probed linearly from the
// top bits of a net's hash, and each coarse net's hash.
type netIndex struct {
	ids    []int32
	hashes []uint64
	shift  uint
}

// newNetIndex sizes the table at least twice the nets it will hold.
func newNetIndex(nets int) *netIndex {
	bits := uint(1)
	for 1<<bits < 2*nets {
		bits++
	}
	return &netIndex{ids: make([]int32, 1<<bits), hashes: make([]uint64, 0, nets), shift: 64 - bits}
}

// find returns the slot of the coarse net whose pins equal pins, or the
// empty slot where it belongs, and the hash of pins.
func (ix *netIndex) find(b *Builder, pins []NodeID) (slot int, hash uint64) {
	hash = hashPins(pins)
	mask := len(ix.ids) - 1
	for slot = int((hash * 0x9e3779b97f4a7c15) >> ix.shift); ; slot = (slot + 1) & mask {
		id := ix.ids[slot]
		if id == 0 {
			return slot, hash
		}
		if ix.hashes[id-1] == hash && slices.Equal(b.pins[b.pinOff[id-1]:b.pinOff[id]], pins) {
			return slot, hash
		}
	}
}

// hashPins is 64-bit FNV-1a over a pin list, one 32-bit word per pin.
func hashPins(pins []NodeID) uint64 {
	hash := uint64(14695981039346656037)
	for _, v := range pins {
		hash ^= uint64(uint32(v))
		hash *= 1099511628211
	}
	return hash
}

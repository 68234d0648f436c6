package hierarchy

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/hypergraph"
)

// Partition is a hierarchical tree partition P = (T, {V_q}): a layered tree
// plus an assignment of every hypergraph node to a leaf (level-0) vertex;
// a node assigned to a leaf is implicitly assigned to all the leaf's
// ancestors.
type Partition struct {
	H      *hypergraph.Hypergraph
	Spec   Spec
	Tree   *Tree
	LeafOf []int32 // node -> leaf vertex
}

// NewPartition allocates a partition with an unassigned node map (-1).
func NewPartition(h *hypergraph.Hypergraph, spec Spec, tree *Tree) *Partition {
	leafOf := make([]int32, h.NumNodes())
	for i := range leafOf {
		leafOf[i] = -1
	}
	return &Partition{H: h, Spec: spec, Tree: tree, LeafOf: leafOf}
}

// Assign places node v in the given leaf vertex.
func (p *Partition) Assign(v hypergraph.NodeID, leaf int) {
	if !p.Tree.IsLeaf(leaf) {
		panic("hierarchy: Assign target is not a leaf")
	}
	p.LeafOf[v] = int32(leaf)
}

// Clone returns a deep copy sharing the hypergraph (which is immutable) but
// not the tree or assignment.
func (p *Partition) Clone() *Partition {
	t := &Tree{
		parent:   append([]int32(nil), p.Tree.parent...),
		level:    append([]int32(nil), p.Tree.level...),
		children: make([][]int32, len(p.Tree.children)),
	}
	for i, c := range p.Tree.children {
		t.children[i] = append([]int32(nil), c...)
	}
	return &Partition{
		H:      p.H,
		Spec:   p.Spec,
		Tree:   t,
		LeafOf: append([]int32(nil), p.LeafOf...),
	}
}

// BlockSizes returns the total node size assigned to every tree vertex
// (each node counts toward its leaf and all ancestors).
func (p *Partition) BlockSizes() []int64 {
	sizes := make([]int64, p.Tree.NumVertices())
	for v := 0; v < p.H.NumNodes(); v++ {
		leaf := p.LeafOf[v]
		if leaf < 0 {
			continue
		}
		s := p.H.NodeSize(hypergraph.NodeID(v))
		for q := int(leaf); q >= 0; q = p.Tree.Parent(q) {
			sizes[q] += s
		}
	}
	return sizes
}

// Nodes returns the nodes assigned (directly or via descendants) to vertex q.
func (p *Partition) Nodes(q int) []hypergraph.NodeID {
	level := p.Tree.Level(q)
	var out []hypergraph.NodeID
	for v := 0; v < p.H.NumNodes(); v++ {
		leaf := p.LeafOf[v]
		if leaf < 0 {
			continue
		}
		if p.Tree.AncestorAt(int(leaf), level) == q {
			out = append(out, hypergraph.NodeID(v))
		}
	}
	return out
}

// Validate checks that the partition is feasible: the tree is layered, every
// node is assigned to a leaf, every vertex at level l holds size <= C_l
// (vertices at the root level are unbounded), and every vertex at level l+1
// has at most K_{l+1} = Branch[l] children.
func (p *Partition) Validate() error {
	if err := p.Tree.Validate(); err != nil {
		return err
	}
	L := p.Spec.Height()
	rootLevel := p.Tree.Level(p.Tree.Root())
	if rootLevel > L {
		return fmt.Errorf("hierarchy: root level %d exceeds spec height %d", rootLevel, L)
	}
	for v := 0; v < p.H.NumNodes(); v++ {
		leaf := p.LeafOf[v]
		if leaf < 0 {
			return fmt.Errorf("hierarchy: node %d unassigned", v)
		}
		if int(leaf) >= p.Tree.NumVertices() || !p.Tree.IsLeaf(int(leaf)) {
			return fmt.Errorf("hierarchy: node %d assigned to non-leaf %d", v, leaf)
		}
	}
	sizes := p.BlockSizes()
	for q := 0; q < p.Tree.NumVertices(); q++ {
		l := p.Tree.Level(q)
		if l < L && sizes[q] > p.Spec.Capacity[l] {
			return fmt.Errorf("hierarchy: vertex %d at level %d holds %d > C_%d = %d",
				q, l, sizes[q], l, p.Spec.Capacity[l])
		}
		if l >= 1 && len(p.Tree.Children(q)) > p.Spec.Branch[l-1] {
			return fmt.Errorf("hierarchy: vertex %d at level %d has %d > K_%d = %d children",
				q, l, len(p.Tree.Children(q)), l, p.Spec.Branch[l-1])
		}
	}
	return nil
}

// Span returns span(e, l): the number of distinct level-l blocks containing
// pins of net e, or 0 if all pins share one block. Unassigned pins are
// ignored.
func (p *Partition) Span(e hypergraph.NetID, level int) int {
	var buf [stackMarks]uint32
	c := p.newSpanCounter(&buf)
	return p.span(e, level, &c)
}

// spanCounter marks the tree vertices one span count has seen with a
// generation stamp, so a Cost, LevelCosts or NetCosts call counts every
// (net, level) pair in one array instead of a set per pair.
type spanCounter struct {
	mark []uint32 // by tree vertex
	gen  uint32
}

// stackMarks is the tree size whose stamps fit in a caller's stack buffer,
// so that pricing a hierarchy of up to 64 vertices (height 5 in the binary
// case) allocates nothing; larger trees get one array per call.
const stackMarks = 64

func (p *Partition) newSpanCounter(buf *[stackMarks]uint32) spanCounter {
	if n := p.Tree.NumVertices(); n <= len(buf) {
		return spanCounter{mark: buf[:n]}
	}
	return spanCounter{mark: make([]uint32, p.Tree.NumVertices())}
}

func (p *Partition) span(e hypergraph.NetID, level int, c *spanCounter) int {
	if c.gen == math.MaxUint32 {
		clear(c.mark)
		c.gen = 0
	}
	c.gen++
	n := 0
	for _, v := range p.H.Pins(e) {
		leaf := p.LeafOf[v]
		if leaf < 0 {
			continue
		}
		if q := p.Tree.AncestorAt(int(leaf), level); c.mark[q] != c.gen {
			c.mark[q] = c.gen
			n++
		}
	}
	if n <= 1 {
		return 0
	}
	return n
}

// NetCosts returns cost(e) = Σ_{l=0}^{L'-1} w_l·span(e,l)·c(e) for every
// net e, indexed by net, where L' is the root level of the tree (crossings
// cannot occur at or above the root).
func (p *Partition) NetCosts() []float64 {
	var buf [stackMarks]uint32
	c := p.newSpanCounter(&buf)
	out := make([]float64, p.H.NumNets())
	for e := range out {
		out[e] = p.netCost(hypergraph.NetID(e), &c)
	}
	return out
}

func (p *Partition) netCost(e hypergraph.NetID, c *spanCounter) float64 {
	top := p.Tree.Level(p.Tree.Root())
	var cost float64
	for l := 0; l < top && l < p.Spec.Height(); l++ {
		cost += p.Spec.Weight[l] * float64(p.span(e, l, c))
	}
	return cost * p.H.NetCapacity(e)
}

// Cost returns the total interconnection cost Σ_e cost(e).
func (p *Partition) Cost() float64 {
	var buf [stackMarks]uint32
	c := p.newSpanCounter(&buf)
	var total float64
	for e := 0; e < p.H.NumNets(); e++ {
		total += p.netCost(hypergraph.NetID(e), &c)
	}
	return total
}

// LevelCosts returns the cost contribution of each level l (Σ_e
// w_l·span(e,l)·c(e)), indexed by level, up to the root level.
func (p *Partition) LevelCosts() []float64 {
	top := p.Tree.Level(p.Tree.Root())
	if top > p.Spec.Height() {
		top = p.Spec.Height()
	}
	var buf [stackMarks]uint32
	c := p.newSpanCounter(&buf)
	out := make([]float64, top)
	for e := 0; e < p.H.NumNets(); e++ {
		for l := 0; l < top; l++ {
			out[l] += p.Spec.Weight[l] * float64(p.span(hypergraph.NetID(e), l, &c)) * p.H.NetCapacity(hypergraph.NetID(e))
		}
	}
	return out
}

// String renders the tree with block sizes, one vertex per line, indented by
// depth — handy for examples and debugging.
func (p *Partition) String() string {
	sizes := p.BlockSizes()
	var sb strings.Builder
	var walk func(q, depth int)
	walk = func(q, depth int) {
		fmt.Fprintf(&sb, "%s[v%d level=%d size=%d]\n",
			strings.Repeat("  ", depth), q, p.Tree.Level(q), sizes[q])
		for _, c := range p.Tree.Children(q) {
			walk(int(c), depth+1)
		}
	}
	walk(p.Tree.Root(), 0)
	return sb.String()
}

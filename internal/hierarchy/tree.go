package hierarchy

import "fmt"

// Tree is a layered rooted tree: every vertex has a level, the root has the
// highest level, and each child sits exactly one level below its parent, so
// all leaves are at level 0 (Figure 1 of the paper). Vertices are dense
// integer IDs in creation order; the root is vertex 0.
type Tree struct {
	parent   []int32
	level    []int32
	children [][]int32
}

// NewTree creates a tree containing only a root at the given level.
func NewTree(rootLevel int) *Tree {
	if rootLevel < 0 {
		panic("hierarchy: negative root level")
	}
	return &Tree{
		parent:   []int32{-1},
		level:    []int32{int32(rootLevel)},
		children: [][]int32{nil},
	}
}

// Root returns the root vertex (always 0).
func (t *Tree) Root() int { return 0 }

// NumVertices reports the number of tree vertices.
func (t *Tree) NumVertices() int { return len(t.parent) }

// Level returns the level of vertex q.
func (t *Tree) Level(q int) int { return int(t.level[q]) }

// Parent returns q's parent, or -1 for the root.
func (t *Tree) Parent(q int) int { return int(t.parent[q]) }

// Children returns q's children. The slice is owned by the tree.
func (t *Tree) Children(q int) []int32 { return t.children[q] }

// IsLeaf reports whether q is at level 0.
func (t *Tree) IsLeaf(q int) bool { return t.level[q] == 0 }

// AddChild creates a new vertex one level below parent and returns its ID.
// It panics if parent is already at level 0.
func (t *Tree) AddChild(parent int) int {
	if t.level[parent] == 0 {
		panic("hierarchy: cannot add child below level 0")
	}
	id := len(t.parent)
	t.parent = append(t.parent, int32(parent))
	t.level = append(t.level, t.level[parent]-1)
	t.children = append(t.children, nil)
	t.children[parent] = append(t.children[parent], int32(id))
	return id
}

// AncestorAt returns the ancestor of q at the given level (possibly q
// itself). It panics if level exceeds q's root path.
func (t *Tree) AncestorAt(q, level int) int {
	v := q
	for int(t.level[v]) < level {
		p := t.parent[v]
		if p < 0 {
			panic(fmt.Sprintf("hierarchy: vertex %d has no ancestor at level %d", q, level))
		}
		v = int(p)
	}
	if int(t.level[v]) != level {
		panic(fmt.Sprintf("hierarchy: vertex %d level %d skips level %d", q, t.level[q], level))
	}
	return v
}

// Leaves returns all level-0 vertices in ID order.
func (t *Tree) Leaves() []int {
	var out []int
	for q := 0; q < len(t.level); q++ {
		if t.level[q] == 0 {
			out = append(out, q)
		}
	}
	return out
}

// Validate checks the layering invariants.
func (t *Tree) Validate() error {
	for q := 0; q < len(t.parent); q++ {
		p := t.parent[q]
		if q == 0 {
			if p != -1 {
				return fmt.Errorf("hierarchy: root has parent %d", p)
			}
			continue
		}
		if p < 0 || int(p) >= len(t.parent) {
			return fmt.Errorf("hierarchy: vertex %d has bad parent %d", q, p)
		}
		if t.level[p] != t.level[q]+1 {
			return fmt.Errorf("hierarchy: vertex %d at level %d under parent at level %d",
				q, t.level[q], t.level[p])
		}
	}
	return nil
}

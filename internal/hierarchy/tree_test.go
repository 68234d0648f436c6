package hierarchy

import "testing"

func TestTreeConstruction(t *testing.T) {
	tr := NewTree(2)
	if tr.Root() != 0 || tr.Level(0) != 2 || tr.NumVertices() != 1 {
		t.Fatal("fresh tree wrong")
	}
	a := tr.AddChild(0)
	b := tr.AddChild(0)
	if tr.Level(a) != 1 || tr.Level(b) != 1 {
		t.Fatal("children levels wrong")
	}
	a0 := tr.AddChild(a)
	a1 := tr.AddChild(a)
	if !tr.IsLeaf(a0) || !tr.IsLeaf(a1) || tr.IsLeaf(a) {
		t.Fatal("leaf detection wrong")
	}
	if tr.Parent(a0) != a || tr.Parent(a) != 0 || tr.Parent(0) != -1 {
		t.Fatal("parents wrong")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddChildBelowLeafPanics(t *testing.T) {
	tr := NewTree(1)
	leaf := tr.AddChild(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.AddChild(leaf)
}

func TestAncestorAt(t *testing.T) {
	tr := NewTree(3)
	c := tr.AddChild(0)
	g := tr.AddChild(c)
	leaf := tr.AddChild(g)
	if tr.AncestorAt(leaf, 0) != leaf {
		t.Fatal("AncestorAt level 0")
	}
	if tr.AncestorAt(leaf, 2) != c {
		t.Fatal("AncestorAt level 2")
	}
	if tr.AncestorAt(leaf, 3) != 0 {
		t.Fatal("AncestorAt root")
	}
}

func TestLeavesAndVerticesAtLevel(t *testing.T) {
	tr := NewTree(2)
	a := tr.AddChild(0)
	b := tr.AddChild(0)
	a0 := tr.AddChild(a)
	b0 := tr.AddChild(b)
	b1 := tr.AddChild(b)
	leaves := tr.Leaves()
	want := []int{a0, b0, b1}
	if len(leaves) != 3 {
		t.Fatalf("leaves = %v", leaves)
	}
	for i := range want {
		if leaves[i] != want[i] {
			t.Fatalf("leaves = %v, want %v", leaves, want)
		}
	}
}

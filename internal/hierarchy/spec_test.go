package hierarchy

import (
	"math"
	"testing"
)

func validSpec() Spec {
	return Spec{
		Capacity: []int64{4, 8},
		Weight:   []float64{1, 2},
		Branch:   []int{2, 2},
	}
}

func TestSpecValidateOK(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	cases := map[string]Spec{
		"empty":         {},
		"length":        {Capacity: []int64{4}, Weight: []float64{1, 2}, Branch: []int{2}},
		"zero cap":      {Capacity: []int64{0}, Weight: []float64{1}, Branch: []int{2}},
		"decreasing":    {Capacity: []int64{8, 4}, Weight: []float64{1, 2}, Branch: []int{2, 2}},
		"neg weight":    {Capacity: []int64{4}, Weight: []float64{-1}, Branch: []int{2}},
		"branch one":    {Capacity: []int64{4}, Weight: []float64{1}, Branch: []int{1}},
		"branch length": {Capacity: []int64{4, 8}, Weight: []float64{1, 2}, Branch: []int{2}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestTopLevel(t *testing.T) {
	s := validSpec()
	cases := []struct {
		size int64
		want int
	}{
		{1, 0}, {4, 0}, {5, 1}, {8, 1}, {9, 2}, {100, 2},
	}
	for _, c := range cases {
		if got := s.TopLevel(c.size); got != c.want {
			t.Errorf("TopLevel(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestGFunction(t *testing.T) {
	// Paper example parameters: C = (4, 8), w = (1, 2).
	s := validSpec()
	cases := []struct {
		x    int64
		want float64
	}{
		{0, 0},
		{4, 0},                 // x <= C_0
		{5, 2 * 1 * 1},         // 2(5-4)*1
		{8, 2 * 4 * 1},         // 2(8-4)*1
		{9, 2*5*1 + 2*1*2},     // both levels engaged
		{16, 2*12*1 + 2*8*2},   // x above every capacity
		{100, 2*96*1 + 2*92*2}, // far above
	}
	for _, c := range cases {
		if got := s.G(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("G(%d) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestGIsMonotone(t *testing.T) {
	s := validSpec()
	prev := -1.0
	for x := int64(0); x <= 50; x++ {
		g := s.G(x)
		if g < prev {
			t.Fatalf("G not monotone at %d: %g < %g", x, g, prev)
		}
		prev = g
	}
}

func TestBinaryTreeSpec(t *testing.T) {
	s, err := BinaryTreeSpec(16, 2, []float64{1, 2}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity[0] != 4 || s.Capacity[1] != 8 {
		t.Fatalf("capacities = %v, want [4 8]", s.Capacity)
	}
	if s.Branch[0] != 2 || s.Branch[1] != 2 {
		t.Fatalf("branches = %v", s.Branch)
	}
	if s.TopLevel(16) != 2 {
		t.Fatalf("TopLevel(16) = %d, want 2 (the root)", s.TopLevel(16))
	}
}

func TestBinaryTreeSpecSlack(t *testing.T) {
	s, err := BinaryTreeSpec(100, 3, []float64{1, 2, 4}, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	// ideal leaves 12.5 -> 13.75 -> ceil 14
	if s.Capacity[0] != 14 {
		t.Fatalf("C_0 = %d, want 14", s.Capacity[0])
	}
	for l := 1; l < 3; l++ {
		if s.Capacity[l] < s.Capacity[l-1] {
			t.Fatal("capacities not monotone")
		}
	}
}

func TestBinaryTreeSpecErrors(t *testing.T) {
	if _, err := BinaryTreeSpec(10, 0, nil, 1); err == nil {
		t.Error("height 0 accepted")
	}
	if _, err := BinaryTreeSpec(10, 2, []float64{1}, 1); err == nil {
		t.Error("weight length mismatch accepted")
	}
	if _, err := BinaryTreeSpec(10, 1, []float64{1}, 0.5); err == nil {
		t.Error("slack < 1 accepted")
	}
}

func TestGeometricWeights(t *testing.T) {
	w := GeometricWeights(4, 2)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("weights = %v, want %v", w, want)
		}
	}
}

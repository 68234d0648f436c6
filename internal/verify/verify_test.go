package verify

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
)

// tinyInstance returns a 6-node, 2-level instance small enough for every
// oracle.
func tinyInstance(t *testing.T) (*hypergraph.Hypergraph, hierarchy.Spec) {
	t.Helper()
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(6)
	b.AddNet("", 1, 0, 1)
	b.AddNet("", 1, 1, 2)
	b.AddNet("", 2, 2, 3)
	b.AddNet("", 1, 3, 4)
	b.AddNet("", 1, 4, 5)
	b.AddNet("", 3, 0, 5)
	h := b.MustBuild()
	spec := hierarchy.Spec{Capacity: []int64{2, 4}, Weight: []float64{1, 2}, Branch: []int{2, 2}}
	return h, spec
}

func solveTiny(t *testing.T) (*hypergraph.Hypergraph, hierarchy.Spec, *htp.Result) {
	t.Helper()
	h, spec := tinyInstance(t)
	res, err := htp.FlowCtx(context.Background(), h, spec, htp.FlowOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	return h, spec, res
}

func TestCleanResultCertifies(t *testing.T) {
	_, _, res := solveTiny(t)
	rep := Result(res)
	if !rep.OK() {
		t.Fatalf("clean solver result rejected: %v", rep.Err())
	}
	if !SameCost(rep.Cost, res.Cost) {
		t.Fatalf("naive cost %g vs solver cost %g", rep.Cost, res.Cost)
	}
	if rep.Err() != nil {
		t.Fatal("clean report returned non-nil Err")
	}
}

func TestNaiveCostMatchesIncrementalOnCircuit(t *testing.T) {
	h := circuits.Generate(circuits.ISCAS85[0], 1)
	spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := htp.GFMCtx(context.Background(), h, spec, htp.GFMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Result(res)
	if !rep.OK() {
		t.Fatalf("GFM result on %s rejected: %v", circuits.ISCAS85[0].Name, rep.Err())
	}
	// Per-level breakdown must agree with the incremental one too.
	inc := res.Partition.LevelCosts()
	if len(inc) != len(rep.LevelCosts) {
		t.Fatalf("level count %d vs %d", len(inc), len(rep.LevelCosts))
	}
	for l := range inc {
		if !SameCost(inc[l], rep.LevelCosts[l]) {
			t.Fatalf("level %d: %g vs %g", l, inc[l], rep.LevelCosts[l])
		}
	}
}

func TestDetectsWrongReportedCost(t *testing.T) {
	_, _, res := solveTiny(t)
	rep := Certify(res.Partition, res.Cost*1.5+1)
	if rep.OK() {
		t.Fatal("inflated cost accepted")
	}
	wantIssue(t, rep, "cost")
}

func TestDetectsCapacityViolation(t *testing.T) {
	_, _, res := solveTiny(t)
	p := res.Partition.Clone()
	// Cram every node into node 0's leaf: blows C_0 = 2.
	leaf := p.LeafOf[0]
	for v := range p.LeafOf {
		p.LeafOf[v] = leaf
	}
	rep := Partition(p)
	if rep.OK() {
		t.Fatal("capacity violation accepted")
	}
	wantIssue(t, rep, "capacity")
}

func TestDetectsUnassignedNode(t *testing.T) {
	_, _, res := solveTiny(t)
	p := res.Partition.Clone()
	p.LeafOf[3] = -1
	rep := Partition(p)
	if rep.OK() {
		t.Fatal("unassigned node accepted")
	}
	wantIssue(t, rep, "coverage")
}

func TestDetectsNonLeafAssignment(t *testing.T) {
	_, _, res := solveTiny(t)
	p := res.Partition.Clone()
	p.LeafOf[0] = int32(p.Tree.Root())
	if p.Tree.Level(p.Tree.Root()) == 0 {
		t.Skip("degenerate tree: root is a leaf")
	}
	rep := Partition(p)
	if rep.OK() {
		t.Fatal("non-leaf assignment accepted")
	}
	wantIssue(t, rep, "coverage")
}

func TestDetectsBranchViolation(t *testing.T) {
	h, spec := tinyInstance(t)
	// Hand-build a tree whose root has 3 children with K = 2.
	tree := hierarchy.NewTree(2)
	l1a := tree.AddChild(tree.Root())
	l1b := tree.AddChild(tree.Root())
	l1c := tree.AddChild(tree.Root())
	leaves := []int{tree.AddChild(l1a), tree.AddChild(l1b), tree.AddChild(l1c)}
	p := hierarchy.NewPartition(h, spec, tree)
	for v := 0; v < h.NumNodes(); v++ {
		p.Assign(hypergraph.NodeID(v), leaves[v%3])
	}
	rep := Partition(p)
	if rep.OK() {
		t.Fatal("branch-bound violation accepted")
	}
	wantIssue(t, rep, "branch")
}

func TestDetectsStopInconsistency(t *testing.T) {
	_, _, res := solveTiny(t)
	res.Stop = ""
	if rep := Result(res); rep.OK() {
		t.Fatal("missing stop reason accepted")
	}
	res.Stop = "exploded"
	if rep := Result(res); rep.OK() {
		t.Fatal("unknown stop reason accepted")
	}
	res.Stop = "converged"
	res.Iterations = 0
	if rep := Result(res); rep.OK() {
		t.Fatal("zero iterations accepted")
	}
}

func TestDetectsNilResultAndPartition(t *testing.T) {
	if rep := Result(nil); rep.OK() {
		t.Fatal("nil result accepted")
	}
	if rep := Partition(nil); rep.OK() {
		t.Fatal("nil partition accepted")
	}
}

func TestDetectsBadSpec(t *testing.T) {
	_, _, res := solveTiny(t)
	p := res.Partition.Clone()
	p.Spec = hierarchy.Spec{Capacity: []int64{2, 4}, Weight: []float64{1}, Branch: []int{2, 2}}
	rep := Partition(p)
	if rep.OK() {
		t.Fatal("mismatched spec slices accepted")
	}
	wantIssue(t, rep, "spec")
}

func TestReportErrMentionsEveryIssue(t *testing.T) {
	r := &Report{}
	r.fail("cost", "a")
	r.fail("branch", "b")
	err := r.Err()
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{"cost", "branch", "2 discrepancies"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestSameCost(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{100, 100 * (1 + 1e-12), true},
		{100, 101, false},
		{1e-12, 2e-12, false}, // tiny but relatively far apart
		{math.NaN(), math.NaN(), false},
		{math.Inf(1), math.Inf(1), false},
	}
	for _, c := range cases {
		if got := SameCost(c.a, c.b); got != c.want {
			t.Errorf("SameCost(%g, %g) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMetamorphicEquivariance(t *testing.T) {
	_, _, res := solveTiny(t)
	p := res.Partition
	base := Partition(p)
	if !base.OK() {
		t.Fatal(base.Err())
	}
	rng := rand.New(rand.NewSource(42))

	// Node relabeling: permute node IDs, carry the partition over.
	perm := rng.Perm(p.H.NumNodes())
	relabeled, err := RelabelNodes(p.H, perm)
	if err != nil {
		t.Fatal(err)
	}
	q, err := MapPartition(p, relabeled, perm)
	if err != nil {
		t.Fatal(err)
	}
	if rep := Partition(q); !rep.OK() || rep.Cost != base.Cost {
		t.Fatalf("node relabeling changed cost: %v -> %v (%v)", base.Cost, rep.Cost, rep.Err())
	}

	// Net relabeling leaves the same partition's cost untouched.
	netPerm := rng.Perm(p.H.NumNets())
	netRelabeled, err := RelabelNets(p.H, netPerm)
	if err != nil {
		t.Fatal(err)
	}
	q2 := p.Clone()
	q2.H = netRelabeled
	if rep := Partition(q2); !rep.OK() || rep.Cost != base.Cost {
		t.Fatalf("net relabeling changed cost: %v -> %v (%v)", base.Cost, rep.Cost, rep.Err())
	}

	// Pin shuffles are invisible to set-valued spans.
	shuffled, err := ShufflePins(p.H, rng)
	if err != nil {
		t.Fatal(err)
	}
	q3 := p.Clone()
	q3.H = shuffled
	if rep := Partition(q3); !rep.OK() || rep.Cost != base.Cost {
		t.Fatalf("pin shuffle changed cost: %v -> %v (%v)", base.Cost, rep.Cost, rep.Err())
	}

	// Power-of-two capacity rescaling scales the cost exactly.
	scaled, err := ScaleCapacities(p.H, 4)
	if err != nil {
		t.Fatal(err)
	}
	q4 := p.Clone()
	q4.H = scaled
	if rep := Partition(q4); !rep.OK() || rep.Cost != 4*base.Cost {
		t.Fatalf("capacity rescale: want %v, got %v (%v)", 4*base.Cost, rep.Cost, rep.Err())
	}
}

func TestTransformValidation(t *testing.T) {
	h, _ := tinyInstance(t)
	if _, err := RelabelNodes(h, []int{0, 1}); err == nil {
		t.Fatal("short permutation accepted")
	}
	if _, err := RelabelNodes(h, []int{0, 0, 1, 2, 3, 4}); err == nil {
		t.Fatal("repeated entry accepted")
	}
	if _, err := RelabelNets(h, []int{9, 1, 2, 3, 4, 5}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
	if _, err := ScaleCapacities(h, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func wantIssue(t *testing.T, r *Report, check string) {
	t.Helper()
	for _, is := range r.Issues {
		if is.Check == check {
			return
		}
	}
	t.Fatalf("no %q issue in %v", check, r.Issues)
}

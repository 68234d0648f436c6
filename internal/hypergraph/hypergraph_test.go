package hypergraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// triangleNet builds three nodes joined by one 3-pin net plus one 2-pin net.
func triangleNet(t *testing.T) *Hypergraph {
	t.Helper()
	b := NewBuilder()
	a := b.AddNode("a", 1)
	c := b.AddNode("c", 2)
	d := b.AddNode("d", 3)
	b.AddNet("n0", 1.0, a, c, d)
	b.AddNet("n1", 2.0, a, c)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuilderBasics(t *testing.T) {
	h := triangleNet(t)
	if h.NumNodes() != 3 || h.NumNets() != 2 || h.NumPins() != 5 {
		t.Fatalf("n=%d m=%d p=%d", h.NumNodes(), h.NumNets(), h.NumPins())
	}
	if h.TotalSize() != 6 {
		t.Fatalf("TotalSize = %d", h.TotalSize())
	}
	if h.NodeSize(2) != 3 || h.NodeName(0) != "a" {
		t.Fatal("node accessors wrong")
	}
	if h.NetCapacity(1) != 2.0 || h.NetName(0) != "n0" {
		t.Fatal("net accessors wrong")
	}
	if h.Degree(0) != 2 || h.Degree(2) != 1 {
		t.Fatalf("degrees: %d %d", h.Degree(0), h.Degree(2))
	}
}

func TestBuildRejectsSmallNets(t *testing.T) {
	b := NewBuilder()
	v := b.AddNode("x", 1)
	b.AddNode("y", 1)
	b.AddNet("bad", 1, v)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a 1-pin net")
	}
}

func TestBuildRejectsDuplicatePins(t *testing.T) {
	b := NewBuilder()
	v := b.AddNode("x", 1)
	u := b.AddNode("y", 1)
	b.AddNet("dup", 1, v, u, v)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted duplicate pins in a net")
	}
}

func TestBuildRejectsBadPinRef(t *testing.T) {
	b := NewBuilder()
	b.AddNode("x", 1)
	b.AddNode("y", 1)
	b.AddNet("oops", 1, 0, 7)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range pin")
	}
}

// TestArenaSlicesAreCapped appends through every Pins(e) and Incident(v)
// of a built hypergraph. The slices share two arenas, so each must be
// capped at its own end: an append that reused the arena would overwrite
// the next net's pins or the next node's nets.
func TestArenaSlicesAreCapped(t *testing.T) {
	b := NewBuilder()
	b.AddUnitNodes(5)
	buf := []NodeID{0, 1, 2}
	b.AddNet("", 1, buf...)
	buf[0], buf[1], buf[2] = 3, 4, 2 // AddNet copied the caller's pins
	b.AddNet("", 1, buf...)
	b.AddNet("", 1, 1, 3)
	h := b.MustBuild()
	wantPins := [][]NodeID{{0, 1, 2}, {3, 4, 2}, {1, 3}}
	wantInc := [][]NetID{{0}, {0, 2}, {0, 1}, {1, 2}, {1}}
	check := func(when string) {
		t.Helper()
		for e, want := range wantPins {
			if got := h.Pins(NetID(e)); !slices.Equal(got, want) {
				t.Fatalf("%s: net %d pins %v, want %v", when, e, got, want)
			}
		}
		for v, want := range wantInc {
			if got := h.Incident(NodeID(v)); !slices.Equal(got, want) {
				t.Fatalf("%s: node %d nets %v, want %v", when, v, got, want)
			}
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("built")
	for e := range wantPins {
		grown := append(h.Pins(NetID(e)), 4)
		check(fmt.Sprintf("after append to net %d", e))
		if grown[len(grown)-1] != 4 {
			t.Fatalf("append to net %d lost its element: %v", e, grown)
		}
	}
	for v := range wantInc {
		grown := append(h.Incident(NodeID(v)), 2)
		check(fmt.Sprintf("after append to node %d", v))
		if grown[len(grown)-1] != 2 {
			t.Fatalf("append to node %d lost its element: %v", v, grown)
		}
	}
}

// TestValidateErrorTexts pins the messages of the duplicate and range
// checks: a node repeated within a later net (the node also sits on an
// earlier net, which is no duplicate), a pin past the last node when
// building, and one that appears in an already built hypergraph.
func TestValidateErrorTexts(t *testing.T) {
	b := NewBuilder()
	b.AddUnitNodes(3)
	b.AddNet("", 1, 0, 1)
	b.AddNet("", 1, 1, 2, 1)
	if _, err := b.Build(); err == nil || err.Error() != "hypergraph: net 1 lists node 1 twice" {
		t.Fatalf("duplicate pin: %v", err)
	}
	b = NewBuilder()
	b.AddUnitNodes(3)
	b.AddNet("", 1, 0, 1)
	b.AddNet("", 1, 2, 7)
	if _, err := b.Build(); err == nil || err.Error() != "hypergraph: net 1 references node 7 out of range" {
		t.Fatalf("out-of-range pin at Build: %v", err)
	}
	h := triangleNet(t)
	h.pins[len(h.pins)-1] = 9
	if err := h.Validate(); err == nil || err.Error() != "hypergraph: net 1 pin references node 9 out of range" {
		t.Fatalf("out-of-range pin at Validate: %v", err)
	}
}

func TestAddNodePanicsOnNonPositiveSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder().AddNode("z", 0)
}

func TestCloneIsDeep(t *testing.T) {
	h := triangleNet(t)
	c := h.Clone()
	// mutate the original's slices through unsafe-ish access: pins are shared
	// via the accessor, so instead verify structural equality and
	// independence of the backing arrays by rebuilding.
	if c.NumNodes() != h.NumNodes() || c.NumNets() != h.NumNets() || c.NumPins() != h.NumPins() {
		t.Fatal("clone differs structurally")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.pins[0] = 1 // reach into the clone; original must be unaffected
	if h.pins[0] != 0 {
		t.Fatal("clone shares pin storage with original")
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode("", 1)
	}
	b.AddNet("", 1, 0, 1, 2)
	b.AddNet("", 1, 3, 4)
	h := b.MustBuild()
	comps := h.Components()
	want := [][]NodeID{{0, 1, 2}, {3, 4}, {5}}
	if len(comps) != len(want) {
		t.Fatalf("got %d components: %v", len(comps), comps)
	}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	// 5 nodes; net0 = {0,1,2}, net1 = {2,3}, net2 = {3,4}.
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddNode("", int64(i+1))
	}
	b.AddNet("n0", 1, 0, 1, 2)
	b.AddNet("n1", 2, 2, 3)
	b.AddNet("n2", 3, 3, 4)
	h := b.MustBuild()

	sub, nodeMap, netMap := h.InducedSubgraph([]NodeID{0, 1, 2})
	if sub.NumNodes() != 3 {
		t.Fatalf("sub nodes = %d", sub.NumNodes())
	}
	// net1 loses pin 3 -> 1 pin inside -> dropped; net2 entirely outside.
	if sub.NumNets() != 1 || len(netMap) != 1 || netMap[0] != 0 {
		t.Fatalf("sub nets = %d, netMap = %v", sub.NumNets(), netMap)
	}
	if sub.NodeSize(2) != 3 {
		t.Fatal("node size not preserved")
	}
	if len(nodeMap) != 3 || nodeMap[2] != 2 {
		t.Fatalf("nodeMap = %v", nodeMap)
	}

	// A subset keeping net1 intact.
	sub2, _, netMap2 := h.InducedSubgraph([]NodeID{2, 3, 4})
	if sub2.NumNets() != 2 {
		t.Fatalf("sub2 nets = %d", sub2.NumNets())
	}
	if netMap2[0] != 1 || netMap2[1] != 2 {
		t.Fatalf("netMap2 = %v", netMap2)
	}
	if sub2.NetCapacity(0) != 2 || sub2.NetCapacity(1) != 3 {
		t.Fatal("capacities not preserved")
	}
}

func TestInducedSubgraphPanicsOnDuplicate(t *testing.T) {
	h := triangleNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.InducedSubgraph([]NodeID{0, 0})
}

func TestContractDedup(t *testing.T) {
	// 4 nodes; nets {0,1}, {1,2}, {2,3}, {0,1,2,3}, plus a duplicate of
	// {1,2}. Under clusters {0,1}/{2,3} the three surviving fine nets all
	// collapse onto the cluster pair {A,B}, so dedup must merge them into
	// one net with summed capacity 1+1+5 = 7.
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode("", 1)
	}
	b.AddNet("a", 1, 0, 1)
	b.AddNet("b", 1, 1, 2)
	b.AddNet("c", 1, 2, 3)
	b.AddNet("d", 5, 0, 1, 2, 3)
	b.AddNet("e", 1, 2, 1) // parallel to "b", reversed pin order
	h := b.MustBuild()

	ch, err := h.ContractDedup([]int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumNodes() != 2 {
		t.Fatalf("contracted nodes = %d", ch.NumNodes())
	}
	if ch.NumNets() != 1 {
		t.Fatalf("deduped nets = %d, want 1", ch.NumNets())
	}
	if ch.NetCapacity(0) != 7 {
		t.Fatalf("merged capacity = %v, want 7", ch.NetCapacity(0))
	}
	if ch.NetName(0) != "b" {
		t.Fatalf("merged net kept name %q, want first contributor \"b\"", ch.NetName(0))
	}
}

// TestContractDedupPinShrink is the memory-hazard regression test for the
// multilevel coarsener. A chain where every edge is duplicated many times
// would keep its full parallel-net population at every level if
// contraction kept parallel nets — pin counts would never shrink, so a deep
// level stack would hold levels × dup × n pins at once (the OOM blow-up
// mode). ContractDedup must collapse each parallel bundle to one net so pins
// drop geometrically with the node count.
func TestContractDedupPinShrink(t *testing.T) {
	const (
		n   = 256
		dup = 64
	)
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode("", 1)
	}
	for i := 0; i < n-1; i++ {
		for d := 0; d < dup; d++ {
			b.AddNet("", 1, NodeID(i), NodeID(i+1))
		}
	}
	h := b.MustBuild()

	pairUp := func(m int) []int {
		cl := make([]int, m)
		for i := range cl {
			cl[i] = i / 2
		}
		return cl
	}

	dedup := h
	var err error
	for level := 0; dedup.NumNodes() > 4; level++ {
		m := dedup.NumNodes()
		dedup, err = dedup.ContractDedup(pairUp(m), (m+1)/2)
		if err != nil {
			t.Fatal(err)
		}
		// Dedup keeps exactly one net per surviving chain edge.
		wantDedup := (dedup.NumNodes() - 1) * 2
		if dedup.NumPins() != wantDedup {
			t.Fatalf("level %d: dedup pins = %d, want %d", level, dedup.NumPins(), wantDedup)
		}
		// Capacity mass on the cut structure is preserved exactly.
		var capSum float64
		for e := 0; e < dedup.NumNets(); e++ {
			capSum += dedup.NetCapacity(NetID(e))
		}
		if want := float64((dedup.NumNodes() - 1) * dup); capSum != want {
			t.Fatalf("level %d: dedup capacity mass = %v, want %v", level, capSum, want)
		}
	}
}

func TestContractDedupErrors(t *testing.T) {
	h := triangleNet(t)
	if _, err := h.ContractDedup([]int{0, 0}, 1); err == nil {
		t.Fatal("accepted short clusterOf")
	}
	if _, err := h.ContractDedup([]int{0, 0, 2}, 2); err == nil {
		t.Fatal("accepted out-of-range cluster")
	}
	if _, err := h.ContractDedup([]int{0, 0, 0}, 2); err == nil {
		t.Fatal("accepted empty cluster")
	}
}

func TestCutCapacity(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode("", 1)
	}
	b.AddNet("", 2, 0, 1)
	b.AddNet("", 3, 1, 2)
	b.AddNet("", 4, 2, 3)
	b.AddNet("", 10, 0, 1, 2, 3)
	h := b.MustBuild()
	capacity, nets := h.CutCapacity([]bool{true, true, false, false})
	if capacity != 13 || nets != 2 {
		t.Fatalf("cut = (%g,%d), want (13,2)", capacity, nets)
	}
	capacity, nets = h.CutCapacity([]bool{true, true, true, true})
	if capacity != 0 || nets != 0 {
		t.Fatalf("uncut = (%g,%d)", capacity, nets)
	}
}

func TestStatsAndHistogram(t *testing.T) {
	h := triangleNet(t)
	s := ComputeStats(h)
	if s.Nodes != 3 || s.Nets != 2 || s.Pins != 5 || s.TotalSize != 6 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MinNetCard != 2 || s.MaxNetCard != 3 {
		t.Fatalf("cards = [%d..%d]", s.MinNetCard, s.MaxNetCard)
	}
	if s.Components != 1 {
		t.Fatalf("components = %d", s.Components)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestRandomRoundTripInvariants builds random hypergraphs and checks
// Validate, Components covering all nodes, and induced-subgraph size
// preservation.
func TestRandomRoundTripInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(40)
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode("", int64(1+rng.Intn(5)))
		}
		m := 1 + rng.Intn(60)
		for e := 0; e < m; e++ {
			maxCard := 5
			if maxCard > n {
				maxCard = n
			}
			card := 2 + rng.Intn(maxCard-1)
			perm := rng.Perm(n)[:card]
			pins := make([]NodeID, card)
			for i, p := range perm {
				pins[i] = NodeID(p)
			}
			b.AddNet("", float64(1+rng.Intn(3)), pins...)
		}
		h, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, comp := range h.Components() {
			covered += len(comp)
		}
		if covered != n {
			t.Fatalf("components cover %d of %d", covered, n)
		}
		// Take a random half and induce.
		half := rng.Perm(n)[:n/2+1]
		nodes := make([]NodeID, len(half))
		var wantSize int64
		for i, v := range half {
			nodes[i] = NodeID(v)
			wantSize += h.NodeSize(NodeID(v))
		}
		sub, _, _ := h.InducedSubgraph(nodes)
		if sub.TotalSize() != wantSize {
			t.Fatalf("induced size = %d, want %d", sub.TotalSize(), wantSize)
		}
		if err := sub.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNamesStayNilUntilOneIsSet: an unnamed graph stores no name slices,
// a name set after unnamed entries fills them in as empty, and an induced
// subgraph keeps a named input's names.
func TestNamesStayNilUntilOneIsSet(t *testing.T) {
	b := NewBuilder()
	b.AddUnitNodes(3)
	b.AddNet("", 1, 0, 1)
	h := b.MustBuild()
	if h.nodeNames != nil || h.netNames != nil || h.NodeName(2) != "" || h.NetName(0) != "" {
		t.Fatalf("unnamed graph stores names %q %q", h.nodeNames, h.netNames)
	}

	b = NewBuilder()
	b.AddUnitNodes(2)
	b.AddNode("c", 1)
	b.AddNet("", 1, 0, 1)
	b.AddNet("bc", 2, 1, 2)
	h = b.MustBuild()
	for v, want := range []string{"", "", "c"} {
		if got := h.NodeName(NodeID(v)); got != want {
			t.Fatalf("node %d named %q, want %q", v, got, want)
		}
	}
	if h.NetName(0) != "" || h.NetName(1) != "bc" {
		t.Fatalf("net names %q %q", h.NetName(0), h.NetName(1))
	}
	sub, _, _ := h.InducedSubgraph([]NodeID{2, 1})
	if sub.NodeName(0) != "c" || sub.NodeName(1) != "" || sub.NetName(0) != "bc" {
		t.Fatalf("induced subgraph names %q %q, net %q", sub.NodeName(0), sub.NodeName(1), sub.NetName(0))
	}
}

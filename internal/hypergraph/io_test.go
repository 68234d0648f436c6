package hypergraph

import (
	"bytes"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, h *Hypergraph) *Hypergraph {
	t.Helper()
	var buf bytes.Buffer
	if err := h.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	return got
}

func assertSame(t *testing.T, a, b *Hypergraph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumNets() != b.NumNets() || a.NumPins() != b.NumPins() {
		t.Fatalf("shape mismatch: (%d,%d,%d) vs (%d,%d,%d)",
			a.NumNodes(), a.NumNets(), a.NumPins(), b.NumNodes(), b.NumNets(), b.NumPins())
	}
	for v := 0; v < a.NumNodes(); v++ {
		if a.NodeSize(NodeID(v)) != b.NodeSize(NodeID(v)) {
			t.Fatalf("node %d size %d vs %d", v, a.NodeSize(NodeID(v)), b.NodeSize(NodeID(v)))
		}
	}
	for e := 0; e < a.NumNets(); e++ {
		if a.NetCapacity(NetID(e)) != b.NetCapacity(NetID(e)) {
			t.Fatalf("net %d cap %g vs %g", e, a.NetCapacity(NetID(e)), b.NetCapacity(NetID(e)))
		}
		pa, pb := a.Pins(NetID(e)), b.Pins(NetID(e))
		if len(pa) != len(pb) {
			t.Fatalf("net %d pins %v vs %v", e, pa, pb)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("net %d pins %v vs %v", e, pa, pb)
			}
		}
	}
}

func TestRoundTripUnitWeights(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode("", 1)
	}
	b.AddNet("", 1, 0, 1, 2)
	b.AddNet("", 1, 2, 3)
	h := b.MustBuild()
	assertSame(t, h, roundTrip(t, h))
}

func TestRoundTripWeighted(t *testing.T) {
	b := NewBuilder()
	b.AddNode("", 2)
	b.AddNode("", 3)
	b.AddNode("", 1)
	b.AddNet("", 2.5, 0, 1)
	b.AddNet("", 1, 1, 2)
	h := b.MustBuild()
	assertSame(t, h, roundTrip(t, h))
}

func TestRoundTripCapsOnly(t *testing.T) {
	b := NewBuilder()
	b.AddUnitNodes(3)
	b.AddNet("", 4, 0, 1)
	b.AddNet("", 1, 1, 2)
	h := b.MustBuild()
	assertSame(t, h, roundTrip(t, h))
}

func TestReadPlainHMetis(t *testing.T) {
	in := `% a comment
2 4
1 2 3
3 4
`
	h, err := ReadFrom(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNets() != 2 || h.NumNodes() != 4 || h.NumPins() != 5 {
		t.Fatalf("parsed shape: %d %d %d", h.NumNets(), h.NumNodes(), h.NumPins())
	}
	if h.Pins(0)[2] != 2 {
		t.Fatal("1-based conversion wrong")
	}
}

func TestReadFormat11(t *testing.T) {
	in := `2 3 11
2.0 1 2
1 2 3
5
1
7
`
	h, err := ReadFrom(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.NetCapacity(0) != 2.0 || h.NetCapacity(1) != 1 {
		t.Fatal("capacities wrong")
	}
	if h.NodeSize(0) != 5 || h.NodeSize(2) != 7 {
		t.Fatal("sizes wrong")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "x 3\n",
		"bad format":   "1 2 7\n1 2\n",
		"short net":    "1 2\n1\n",
		"bad pin":      "1 2\n1 9\n",
		"missing nets": "2 2\n1 2\n",
		"bad size":     "1 2 10\n1 2\n0\n",
		"neg cap":      "1 2 1\n-1 1 2\n",
		// Regressions: these all parsed (or mis-parsed) before the reader
		// hardening.
		"nan cap":          "1 2 1\nNaN 1 2\n",
		"inf cap":          "1 2 1\nInf 1 2\n",
		"self loop":        "1 2\n1 1\n", // collapses to 1 distinct pin
		"trailing garbage": "1 2\n1 2\n5 6 7\n",
		// Found by FuzzSolvePipeline: a header declaring 6e14 nets made
		// ReadFrom preallocate ~19 TB before reading a single record.
		"huge net count":  "0000600000000000 0\n",
		"huge node count": "0 99999999999\n",
		"trailing size":   "1 2 10\n1 2\n3\n3\n4\n",
		"wide size line":  "1 2 10\n1 2\n3 4\n",
	}
	for name, in := range cases {
		if _, err := ReadFrom(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// Regression: the reader sized its net list from the header, so a 10-byte
// netlist declaring MaxDeclaredCount nets allocated 128 MB before it failed
// on the first missing record. Memory must follow the records, not the
// header.
func TestReadDeclaredNetCountAllocatesNothing(t *testing.T) {
	for _, tc := range []struct{ in, err string }{
		{"4194304 2\n", "hypergraph: net 1: EOF"},
		{"4194304 2\n1 2\n", "hypergraph: net 2: EOF"},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := ReadFrom(strings.NewReader(tc.in))
		runtime.ReadMemStats(&m1)
		if err == nil || err.Error() != tc.err {
			t.Errorf("%q: error %v, want %q", tc.in, err, tc.err)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%q: allocated %d bytes, want under 1 MB", tc.in, alloc)
		}
	}
}

// Regression: duplicate pins inside a net line used to flow into Build and
// fail there with a confusing validation error (or, for readers that skip
// Validate, corrupt incidence counts). They now canonicalize to the first
// occurrence.
func TestReadCanonicalizesDuplicatePins(t *testing.T) {
	h, err := ReadFrom(strings.NewReader("2 3\n1 2 1 3 2\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{0, 1, 2}
	got := h.Pins(0)
	if len(got) != len(want) {
		t.Fatalf("pins = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pins = %v, want %v (first occurrences, in order)", got, want)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadSkipsBlankAndCommentLines(t *testing.T) {
	in := "% header comment\n\n  \t \n2 3 1\n\n1.5 1 2\n  % interior comment\n2 2 3\n\n% trailing comment\n"
	h, err := ReadFrom(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNets() != 2 || h.NumNodes() != 3 {
		t.Fatalf("shape %d %d", h.NumNets(), h.NumNodes())
	}
	if h.NetCapacity(0) != 1.5 {
		t.Fatalf("cap = %g", h.NetCapacity(0))
	}
}

func TestValidateRejectsNonFiniteCapacity(t *testing.T) {
	for _, cap := range []float64{math.NaN(), math.Inf(1)} {
		b := NewBuilder()
		b.AddUnitNodes(2)
		b.AddNet("", cap, 0, 1)
		if _, err := b.Build(); err == nil {
			t.Errorf("capacity %g accepted", cap)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.net")
	b := NewBuilder()
	b.AddUnitNodes(5)
	b.AddNet("", 1, 0, 1, 2, 3, 4)
	b.AddNet("", 1, 0, 4)
	h := b.MustBuild()
	if err := h.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, h, got)
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.net")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

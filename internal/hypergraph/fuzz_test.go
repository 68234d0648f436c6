package hypergraph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadFrom hardens the netlist parser: arbitrary input must either
// return an error or produce a hypergraph that validates and round-trips.
func FuzzReadFrom(f *testing.F) {
	f.Add("2 4\n1 2 3\n3 4\n")
	f.Add("2 3 11\n2.0 1 2\n1 2 3\n5\n1\n7\n")
	f.Add("1 2 1\n0.5 1 2\n")
	f.Add("% comment\n\n1 2\n1 2\n")
	f.Add("0 0\n")
	f.Add("1 2\n1 1\n")   // self loop: collapses below 2 distinct pins
	f.Add("1 3\n1 2 1\n") // duplicate pin, still valid after canonicalization
	f.Add("1 2\n1\n")     // short net
	f.Add("999999 2\n")   // truncated
	f.Add("2 2 10\n1 2\n1 2\n-3\n1\n")
	f.Add("1 2 1\nNaN 1 2\n")             // non-finite capacity
	f.Add("1 2 1\n+Inf 1 2\n")            // non-finite capacity
	f.Add("1 2\n1 2\ntrailing garbage\n") // content past the declared records
	f.Add("1 2 10\n1 2\n3 4\n")           // size line with extra fields
	f.Add("\n \t\n% only\n1 2\n\n1 2\n")  // blank/whitespace lines everywhere
	f.Add("1 2 1\n1e308 1 2\n")           // huge but finite capacity
	f.Add("0000600000000000 0\n")         // absurd declared count (OOM regression)
	f.Fuzz(func(t *testing.T, input string) {
		h, err := ReadFrom(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("parsed hypergraph fails validation: %v\ninput: %q", err, input)
		}
		var buf bytes.Buffer
		if err := h.Write(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		h2, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v\nserialized: %q", err, buf.String())
		}
		if h2.NumNodes() != h.NumNodes() || h2.NumNets() != h.NumNets() || h2.NumPins() != h.NumPins() {
			t.Fatalf("round trip changed shape: (%d,%d,%d) -> (%d,%d,%d)",
				h.NumNodes(), h.NumNets(), h.NumPins(), h2.NumNodes(), h2.NumNets(), h2.NumPins())
		}
		for v := 0; v < h.NumNodes(); v++ {
			if h2.NodeSize(NodeID(v)) != h.NodeSize(NodeID(v)) {
				t.Fatalf("round trip changed node %d size %d -> %d", v, h.NodeSize(NodeID(v)), h2.NodeSize(NodeID(v)))
			}
		}
		for e := 0; e < h.NumNets(); e++ {
			if h2.NetCapacity(NetID(e)) != h.NetCapacity(NetID(e)) {
				t.Fatalf("round trip changed net %d capacity %g -> %g", e, h.NetCapacity(NetID(e)), h2.NetCapacity(NetID(e)))
			}
			pa, pb := h.Pins(NetID(e)), h2.Pins(NetID(e))
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("round trip changed net %d pins %v -> %v", e, pa, pb)
				}
			}
		}
		// Write is canonical, so a second serialization must be a byte-level
		// fixpoint: read(write(h)) == h exactly (Go's %g round-trips floats).
		var buf2 bytes.Buffer
		if err := h2.Write(&buf2); err != nil {
			t.Fatalf("second write-back failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("write->read->write not a fixpoint:\nfirst:  %q\nsecond: %q", buf.String(), buf2.String())
		}
	})
}

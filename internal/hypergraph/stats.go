package hypergraph

import "fmt"

// Stats summarizes the size and shape of a hypergraph; it corresponds to the
// columns of Table 1 in the paper (#nodes, #nets, #pins) plus distribution
// information useful when validating synthetic benchmark circuits.
type Stats struct {
	Nodes     int
	Nets      int
	Pins      int
	TotalSize int64

	MinNetCard int
	MaxNetCard int
	AvgNetCard float64

	MinDegree int
	MaxDegree int
	AvgDegree float64

	Components int
}

// ComputeStats gathers summary statistics.
func ComputeStats(h *Hypergraph) Stats {
	s := Stats{
		Nodes:     h.NumNodes(),
		Nets:      h.NumNets(),
		Pins:      h.NumPins(),
		TotalSize: h.TotalSize(),
	}
	if s.Nets > 0 {
		s.MinNetCard = len(h.Pins(0))
		for e := 0; e < s.Nets; e++ {
			card := len(h.Pins(NetID(e)))
			if card < s.MinNetCard {
				s.MinNetCard = card
			}
			if card > s.MaxNetCard {
				s.MaxNetCard = card
			}
		}
		s.AvgNetCard = float64(s.Pins) / float64(s.Nets)
	}
	if s.Nodes > 0 {
		s.MinDegree = h.Degree(0)
		for v := 0; v < s.Nodes; v++ {
			deg := h.Degree(NodeID(v))
			if deg < s.MinDegree {
				s.MinDegree = deg
			}
			if deg > s.MaxDegree {
				s.MaxDegree = deg
			}
		}
		s.AvgDegree = float64(s.Pins) / float64(s.Nodes)
	}
	s.Components = len(h.Components())
	return s
}

// String renders the stats as a single human-readable line.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d nets=%d pins=%d size=%d card=[%d..%d] avg=%.2f deg=[%d..%d] avg=%.2f comps=%d",
		s.Nodes, s.Nets, s.Pins, s.TotalSize,
		s.MinNetCard, s.MaxNetCard, s.AvgNetCard,
		s.MinDegree, s.MaxDegree, s.AvgDegree, s.Components)
}

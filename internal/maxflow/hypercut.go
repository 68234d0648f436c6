package maxflow

import (
	"context"
	"fmt"
	"math"

	"repro/internal/hypergraph"
)

// RawNet is one net of a raw min-cut instance: a capacity and a pin list
// that — unlike a validated hypergraph.Hypergraph net — may contain
// duplicate pins, fewer than two distinct pins, or pins folded onto
// terminal vertices by a corridor contraction (flowrefine maps every
// non-corridor pin of a block onto that block's anchor vertex, so whole
// sub-blocks collapse onto one pin). CutRawCtx normalizes these shapes
// instead of trusting the caller.
type RawNet struct {
	Cap  float64
	Pins []int32
}

// CutRawCtx computes a minimum-capacity net cut separating every source
// vertex from every sink vertex over vertices 0..n-1, via the Lawler
// net-splitting expansion solved with Dinic. A net is cut when its distinct
// pins land on both sides. It returns the cut capacity and the source-side
// membership of the n vertices (free vertices touching no usable net land
// on the sink side).
//
// Degenerate nets are handled explicitly rather than lowered naively,
// because the naive expansion distorts the model:
//
//   - duplicate pins are deduplicated — one Inf arc pair per distinct pin,
//     not per copy, so a contracted block folding k pins onto its anchor
//     does not build k parallel arcs for Dinic to scan;
//   - a net with fewer than two distinct pins can never be cut and adds no
//     arcs at all (the naive lowering still builds its bridge arc and pin
//     cycle);
//   - a zero-capacity net adds no arcs — its bridge would sit in the level
//     graph with capacity 0, a self-loop-like dead end that contributes
//     nothing to any cut but is traversed by every phase;
//   - a net pinned to both a source and a sink is cut in every admissible
//     bipartition: its capacity joins the returned value as a constant and
//     no arcs are built, so no real flow is routed through a foregone
//     conclusion (with Inf-capacity nets the naive lowering would push an
//     unbounded augmentation here and report a meaningless Inf cut);
//   - a net whose distinct pins all sit on one terminal side can never be
//     cut and adds no arcs.
//
// Errors: a negative or NaN capacity, an out-of-range pin or terminal, a
// vertex listed as both source and sink, or cancellation (the context is
// threaded into Dinic's phases). On error the returned side is nil.
func CutRawCtx(ctx context.Context, n int, nets []RawNet, sources, sinks []int32) (capacity float64, sourceSide []bool, err error) {
	isSrc := make([]bool, n)
	isSnk := make([]bool, n)
	for _, v := range sources {
		if v < 0 || int(v) >= n {
			return 0, nil, fmt.Errorf("maxflow: source %d out of range [0,%d)", v, n)
		}
		isSrc[v] = true
	}
	for _, v := range sinks {
		if v < 0 || int(v) >= n {
			return 0, nil, fmt.Errorf("maxflow: sink %d out of range [0,%d)", v, n)
		}
		if isSrc[v] {
			return 0, nil, fmt.Errorf("maxflow: vertex %d is both source and sink", v)
		}
		isSnk[v] = true
	}

	// Classification pass: dedup pins and keep only nets that can actually
	// toggle between cut and uncut. seen carries first-use generation stamps
	// so the dedup is O(pins) with no per-net clearing.
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	type kept struct {
		cap  float64
		pins []int32
	}
	var keep []kept
	var constant float64
	scratch := make([]int32, 0, 16)
	for ei, e := range nets {
		if e.Cap < 0 || math.IsNaN(e.Cap) {
			return 0, nil, fmt.Errorf("maxflow: net %d has invalid capacity %g", ei, e.Cap)
		}
		if e.Cap == 0 {
			continue
		}
		scratch = scratch[:0]
		hasSrc, hasSnk, hasFree := false, false, false
		for _, v := range e.Pins {
			if v < 0 || int(v) >= n {
				return 0, nil, fmt.Errorf("maxflow: net %d pin %d out of range [0,%d)", ei, v, n)
			}
			if seen[v] == int32(ei) {
				continue
			}
			seen[v] = int32(ei)
			scratch = append(scratch, v)
			switch {
			case isSrc[v]:
				hasSrc = true
			case isSnk[v]:
				hasSnk = true
			default:
				hasFree = true
			}
		}
		switch {
		case len(scratch) < 2:
			// Single distinct pin (or none): never spans two sides.
		case hasSrc && hasSnk:
			// Pinned to both terminals: cut whatever the free pins do.
			constant += e.Cap
		case !hasFree:
			// All distinct pins on one terminal side: never cut.
		default:
			keep = append(keep, kept{cap: e.Cap, pins: append([]int32(nil), scratch...)})
		}
	}

	// Layout: [0..n) vertices, then per kept net i the pair
	// (in = n+2i, out = n+2i+1), then the super source and sink.
	s := n + 2*len(keep)
	t := s + 1
	nw := NewNetwork(t + 1)
	for i, e := range keep {
		in, out := n+2*i, n+2*i+1
		nw.AddArc(in, out, e.cap)
		for _, v := range e.pins {
			nw.AddArc(int(v), in, Inf)
			nw.AddArc(out, int(v), Inf)
		}
	}
	for v := 0; v < n; v++ {
		if isSrc[v] {
			nw.AddArc(s, v, Inf)
		} else if isSnk[v] {
			nw.AddArc(v, t, Inf)
		}
	}
	flow, err := nw.MaxFlowCtx(ctx, s, t)
	if err != nil {
		return 0, nil, err
	}
	side := nw.MinCutSide(s)
	sourceSide = make([]bool, n)
	copy(sourceSide, side[:n])
	return constant + flow, sourceSide, nil
}

// HyperCutCtx computes a minimum-capacity net cut separating the source
// node set from the sink node set in a hypergraph, using the standard net-
// splitting construction: each net e becomes a pair of auxiliary vertices
// joined by an arc of capacity c(e); pins connect to the pair with infinite
// arcs in both directions. Cutting the model's finite arc corresponds
// exactly to cutting the net.
//
// It returns the cut capacity and the source-side membership of the
// original nodes. The context is threaded into Dinic's phases, and misuse
// (a node in both seed sets) is reported as an error. It lowers the
// hypergraph onto CutRawCtx, which also hardens it against degenerate nets
// — h need not be validated.
func HyperCutCtx(ctx context.Context, h *hypergraph.Hypergraph, sources, sinks []hypergraph.NodeID) (float64, []bool, error) {
	nets := make([]RawNet, h.NumNets())
	for e := range nets {
		pins := h.Pins(hypergraph.NetID(e))
		ps := make([]int32, len(pins))
		for i, v := range pins {
			ps[i] = int32(v)
		}
		nets[e] = RawNet{Cap: h.NetCapacity(hypergraph.NetID(e)), Pins: ps}
	}
	srcs := make([]int32, len(sources))
	for i, v := range sources {
		srcs[i] = int32(v)
	}
	snks := make([]int32, len(sinks))
	for i, v := range sinks {
		snks[i] = int32(v)
	}
	return CutRawCtx(ctx, h.NumNodes(), nets, srcs, snks)
}

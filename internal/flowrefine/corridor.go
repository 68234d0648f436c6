package flowrefine

import (
	"context"
	"slices"

	"repro/internal/fm"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/maxflow"
)

// pairTask is one adjacent leaf-block pair (a < b, tree vertex IDs) plus the
// crossing nets that witnessed the adjacency. The nets only seed the
// corridor; solvePair re-checks them against the live assignment, since an
// earlier batch may have resolved the crossing.
type pairTask struct {
	a, b int32
	nets []hypergraph.NetID
}

// proposal is the outcome of one pair subproblem: the corridor nodes whose
// min-cut side differs from their current block. err carries a worker-side
// failure (never plain cancellation, which yields a nil proposal).
type proposal struct {
	a, b  int32
	moves []move
	err   error
}

const (
	// maxPairSpan skips nets whose pins touch more than this many leaves
	// during pair seeding: they would seed a quadratic pair fan-out while
	// almost never becoming pair-internal.
	maxPairSpan = 8
	// corridorNodes caps the corridor size per block side, on top of the
	// slack-derived size budget.
	corridorNodes = 2048
)

// collectPairs enumerates adjacent leaf pairs from the boundary scan: every
// crossing net (fm.Crossing) with at most maxPairSpan distinct leaves
// contributes each of its leaf pairs. Pairs come out in first-witness
// order — index-derived and therefore deterministic; the map is only a
// membership index and is never ranged over.
func collectPairs(p *hierarchy.Partition, opt Options) []*pairTask {
	idx := make(map[int64]int)
	var pairs []*pairTask
	leaves := make([]int32, 0, maxPairSpan+1)
	for e := hypergraph.NetID(0); int(e) < p.H.NumNets(); e++ {
		if !fm.Crossing(p, e) {
			continue
		}
		leaves = leaves[:0]
		tooWide := false
		for _, u := range p.H.Pins(e) {
			leaf := p.LeafOf[u]
			known := false
			for _, l := range leaves {
				if l == leaf {
					known = true
					break
				}
			}
			if known {
				continue
			}
			if len(leaves) == maxPairSpan {
				tooWide = true
				break
			}
			leaves = append(leaves, leaf)
		}
		if tooWide {
			continue
		}
		slices.Sort(leaves)
		for i := 0; i < len(leaves); i++ {
			for j := i + 1; j < len(leaves); j++ {
				key := int64(leaves[i])<<32 | int64(leaves[j])
				pi, ok := idx[key]
				if !ok {
					pi = len(pairs)
					idx[key] = pi
					pairs = append(pairs, &pairTask{a: leaves[i], b: leaves[j]})
				}
				pairs[pi].nets = append(pairs[pi].nets, e)
			}
		}
	}
	return pairs
}

// pairScratch is per-worker reusable state for solvePair. Generation stamps
// give O(1) resets; the slices are sized to the hypergraph once per worker,
// and the cut workspace grows to the largest pair the worker has cut.
type pairScratch struct {
	gen      int32
	nodeGen  []int32 // corridor membership stamp per hypergraph node
	nodeIdx  []int32 // model index of a corridor node (valid when stamped)
	netGen   []int32 // model-net dedup stamp per net
	corridor []int32 // corridor nodes in discovery order = model index order
	nets     []maxflow.RawNet
	pins     []int32 // backing store for all model pin lists
	cut      maxflow.CutWorkspace
}

func newPairScratch(p *hierarchy.Partition) *pairScratch {
	return &pairScratch{
		nodeGen: make([]int32, p.H.NumNodes()),
		nodeIdx: make([]int32, p.H.NumNodes()),
		netGen:  make([]int32, p.H.NumNets()),
	}
}

// solvePair builds and solves one pair's corridor min-cut against the frozen
// partition snapshot. It only reads shared state (LeafOf, block sizes); the
// move batch it proposes is re-validated at apply time. Returns nil when the
// pair has nothing to offer (crossing already resolved, corridor empty, cut
// agrees with the current assignment) or on cancellation.
//
// Corridor construction: the pins of still-crossing seed nets inside a∪b
// form the boundary; a BFS over incident nets grows it, admitting a node
// only while its side's corridor stays within both the node-count cap and
// the slack budget C_0 − size(other block). The budget bounds how far the
// cut can shift: even if the flow moves the ENTIRE corridor of one side
// across, the destination block ends at size(dest) + corridor(side) ≤ C_0,
// so leaf-level feasibility cannot be exceeded by corridor sizing alone
// (upper levels and batch interactions are what the applier re-checks).
//
// Flow model: corridor nodes are vertices [0..k); vertex k is block a's
// anchor (everything of a outside the corridor, the source), k+1 is b's
// anchor (the sink). Nets incident to the corridor with every pin inside
// a∪b become RawNets with out-of-corridor pins folded onto the anchors —
// CutRawCtx dedups the folded pins and drops the degenerate shapes. Nets
// with pins outside a∪b are skipped: their span is not a function of this
// pair's cut alone. Net capacities enter unscaled: every model net crosses
// the same a–b divergence levels, so the hierarchical weight sum is a
// common positive factor that cannot change the argmin.
func solvePair(ctx context.Context, p *hierarchy.Partition, cs *hierarchy.CostState,
	task *pairTask, opt Options, sc *pairScratch) *proposal {
	a, b := task.a, task.b
	sc.gen++
	gen := sc.gen
	sc.corridor = sc.corridor[:0]

	// Budgets are the slack of the OPPOSITE block: nodes of a may move to b,
	// so a's corridor is bounded by what b could absorb. Boundary seeds are
	// budgeted exactly like grown nodes — an unbudgeted boundary is the
	// oversized-seed trap: once a block sits entirely inside the corridor its
	// anchor is massless, the unconstrained min cut degenerates to "move
	// everything to one side", and every proposal the pair produces is dead
	// on arrival at the feasibility check. Budgeted admission instead keeps
	// every possible one-sided migration leaf-feasible by construction.
	c0 := p.Spec.Capacity[0]
	budget := [2]int64{c0 - cs.BlockSize(int(b)), c0 - cs.BlockSize(int(a))}
	count := [2]int{}
	admit := func(u int32) bool {
		side := 0
		if p.LeafOf[u] == b {
			side = 1
		}
		s := p.H.NodeSize(hypergraph.NodeID(u))
		if count[side] >= corridorNodes || budget[side] < s {
			return false
		}
		count[side]++
		budget[side] -= s
		sc.nodeGen[u] = gen
		sc.nodeIdx[u] = int32(len(sc.corridor))
		sc.corridor = append(sc.corridor, u)
		return true
	}

	// Boundary: pins in a∪b of seed nets that still cross the pair.
	for _, e := range task.nets {
		pins := p.H.Pins(e)
		hasA, hasB := false, false
		for _, u := range pins {
			switch p.LeafOf[u] {
			case a:
				hasA = true
			case b:
				hasB = true
			}
		}
		if !hasA || !hasB {
			continue
		}
		for _, u := range pins {
			if leaf := p.LeafOf[u]; (leaf == a || leaf == b) && sc.nodeGen[u] != gen {
				admit(int32(u))
			}
		}
	}
	if len(sc.corridor) == 0 {
		return nil
	}

	// Corridor growth: BFS over incident nets in discovery order.
	for qi := 0; qi < len(sc.corridor); qi++ {
		u := hypergraph.NodeID(sc.corridor[qi])
		for _, e := range p.H.Incident(u) {
			pins := p.H.Pins(e)
			if len(pins) > fm.MaxNetScan {
				continue
			}
			for _, v := range pins {
				if sc.nodeGen[v] == gen {
					continue
				}
				if leaf := p.LeafOf[v]; leaf != a && leaf != b {
					continue
				}
				admit(int32(v))
			}
		}
	}

	// Flow model over corridor + two anchors.
	k := len(sc.corridor)
	anchor := [2]int32{int32(k), int32(k + 1)}
	sc.nets = sc.nets[:0]
	sc.pins = sc.pins[:0]
	for _, cu := range sc.corridor {
		u := hypergraph.NodeID(cu)
		for _, e := range p.H.Incident(u) {
			if sc.netGen[e] == gen {
				continue
			}
			sc.netGen[e] = gen
			pins := p.H.Pins(e)
			if len(pins) > fm.MaxNetScan {
				continue
			}
			lo := len(sc.pins)
			external := false
			for _, v := range pins {
				switch {
				case sc.nodeGen[v] == gen:
					sc.pins = append(sc.pins, sc.nodeIdx[v])
				case p.LeafOf[v] == a:
					sc.pins = append(sc.pins, anchor[0])
				case p.LeafOf[v] == b:
					sc.pins = append(sc.pins, anchor[1])
				default:
					external = true
				}
			}
			if external {
				sc.pins = sc.pins[:lo]
				continue
			}
			sc.nets = append(sc.nets, maxflow.RawNet{Cap: p.H.NetCapacity(e), Pins: sc.pins[lo:len(sc.pins):len(sc.pins)]})
		}
	}
	if len(sc.nets) == 0 {
		return nil
	}

	_, side, err := sc.cut.CutCtx(ctx, k+2, sc.nets, anchor[:1], anchor[1:])
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return &proposal{a: a, b: b, err: err}
	}

	var moves []move
	for i, cu := range sc.corridor {
		cur := p.LeafOf[cu]
		want := b
		if side[i] {
			want = a
		}
		if cur != want {
			moves = append(moves, move{v: cu, to: want})
		}
	}
	if len(moves) == 0 {
		return nil
	}
	return &proposal{a: a, b: b, moves: moves}
}

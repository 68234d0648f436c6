package htp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/anytime"
	"repro/internal/fm"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// GFMOptions tunes the GFM baseline.
type GFMOptions struct {
	// Seed drives the recursive bisection. Default 1.
	Seed int64
	// Observer receives gfm-bisect/gfm-merge span, build-done, and
	// terminal stop trace events (see internal/obs). Nil disables
	// telemetry at zero cost.
	Observer obs.Observer
	// Span nests the run's events in the caller's span tree: one span for
	// the whole GFM run, with the bisect and merge phases as spans below
	// it. Zero value is fine.
	Span obs.SpanScope
}

// gfmGroup is a cluster of lower-level blocks being grown bottom-up.
type gfmGroup struct {
	members  []int // indices into the previous level's groups
	nodes    []hypergraph.NodeID
	size     int64
	children int // count of direct children (1 for freshly lifted groups)
}

// GFMCtx runs the bottom-up baseline of Kuo, Liu & Cheng (DAC'96): first a
// multiway partition into level-0 blocks of size <= C_0 (recursive FM
// bisection), then the hierarchy is grown upward level by level, greedily
// merging the most-connected feasible pair of groups. Each level merges
// down to its target count (the product of the branch bounds above it) and
// stops, preserving balance headroom for the levels above. Like RFM it
// optimizes one level at a time with no view of the weighted hierarchical
// cost — the contrast the paper draws in §4.
//
// The context is checked inside the bisection, after it, and between
// consolidation and every merge step. Like RFM, GFM builds exactly one
// partition; cancellation before it exists returns an error wrapping
// anytime.ErrNoPartition and the context cause.
func GFMCtx(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt GFMOptions) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	var scope obs.SpanScope
	scope, opt.Observer = opt.Span.Enter(opt.Observer)
	top := spec.TopLevel(h.TotalSize())

	// Target group counts per level: the root takes K_top children, each of
	// which takes K_{top-1}, and so on down.
	targets := make([]int, top+1)
	targets[top] = 1
	for l := top - 1; l >= 0; l-- {
		targets[l] = targets[l+1] * spec.Branch[l]
	}

	if err := gfmInterrupted(ctx); err != nil {
		return nil, err
	}
	var t0, phase time.Time
	if opt.Observer != nil {
		t0 = time.Now()
		phase = t0
	}
	blockOf, numBlocks := fm.RecursiveBisection(ctx, h, spec.Capacity[0], rand.New(rand.NewSource(opt.Seed)))
	if err := gfmInterrupted(ctx); err != nil {
		emitStop(opt.Observer, "error", 0, t0, err)
		return nil, err
	}
	if opt.Observer != nil {
		obs.Emit(opt.Observer, obs.Event{Kind: obs.KindSpan, Phase: "gfm-bisect",
			Span: scope.Mint(), Parent: scope.Parent, ElapsedMS: obs.Millis(time.Since(phase))})
		phase = time.Now()
	}
	level0 := make([]gfmGroup, numBlocks)
	for v := 0; v < h.NumNodes(); v++ {
		b := blockOf[v]
		level0[b].nodes = append(level0[b].nodes, hypergraph.NodeID(v))
		level0[b].size += h.NodeSize(hypergraph.NodeID(v))
	}
	// groupOf[v] tracks node membership at the level being merged.
	groupOf := make([]int, h.NumNodes())
	copy(groupOf, blockOf)

	// Bisection may leave more level-0 blocks than the tree has leaves;
	// consolidate under C_0 (children counts do not apply to leaf blocks).
	if top >= 1 {
		var err error
		level0, groupOf, err = greedyMerge(ctx, h, level0, groupOf, targets[0],
			func(a, b gfmGroup) bool { return a.size+b.size <= spec.Capacity[0] }, true)
		if err != nil {
			emitStop(opt.Observer, "error", 0, t0, err)
			return nil, err
		}
	}
	levels := [][]gfmGroup{level0}

	for l := 1; l < top; l++ {
		prev := levels[l-1]
		cur := make([]gfmGroup, len(prev))
		lifted := make([]int, h.NumNodes())
		for v := range lifted {
			lifted[v] = groupOf[v]
		}
		for i := range prev {
			cur[i] = gfmGroup{members: []int{i}, size: prev[i].size, children: 1}
		}
		var err error
		cur, groupOf, err = greedyMerge(ctx, h, cur, lifted, targets[l],
			func(a, b gfmGroup) bool {
				return a.children+b.children <= spec.Branch[l-1] &&
					a.size+b.size <= spec.Capacity[l]
			}, false)
		if err != nil {
			emitStop(opt.Observer, "error", 0, t0, err)
			return nil, err
		}
		levels = append(levels, cur)
	}
	if opt.Observer != nil {
		obs.Emit(opt.Observer, obs.Event{Kind: obs.KindSpan, Phase: "gfm-merge",
			Span: scope.Mint(), Parent: scope.Parent, ElapsedMS: obs.Millis(time.Since(phase))})
	}

	// Assemble the layered tree.
	tree := hierarchy.NewTree(top)
	p := hierarchy.NewPartition(h, spec, tree)
	var attach func(parent, level, g int)
	attach = func(parent, level, g int) {
		v := tree.AddChild(parent)
		if level == 0 {
			for _, node := range levels[0][g].nodes {
				p.Assign(node, v)
			}
			return
		}
		for _, m := range levels[level][g].members {
			attach(v, level-1, m)
		}
	}
	if top == 0 {
		for v := 0; v < h.NumNodes(); v++ {
			p.Assign(hypergraph.NodeID(v), tree.Root())
		}
	} else {
		for g := range levels[top-1] {
			attach(tree.Root(), top-1, g)
		}
	}
	if err := p.Validate(); err != nil {
		err = fmt.Errorf("htp: GFM partition invalid: %w",
			errors.Join(anytime.ErrNoPartition, err))
		emitStop(opt.Observer, "error", 0, t0, err)
		return nil, err
	}
	res := &Result{Partition: p, Cost: p.Cost(), Iterations: 1, Stop: anytime.StopConverged}
	if opt.Observer != nil {
		obs.Emit(opt.Observer, obs.Event{Kind: obs.KindBuildDone,
			Cost: res.Cost, ElapsedMS: obs.Millis(time.Since(t0))})
		emitStop(opt.Observer, string(res.Stop), res.Cost, t0, nil)
	}
	return res, nil
}

// gfmInterrupted reports the context error to surface, nil while live.
func gfmInterrupted(ctx context.Context) error {
	if ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("htp: GFM interrupted: %w",
		errors.Join(anytime.ErrNoPartition, context.Cause(ctx)))
}

// greedyMerge merges groups until at most target remain, always choosing
// the feasible pair with the highest connecting net capacity (then the
// smallest combined size among unconnected pairs). groupOf maps nodes to
// group indices and is kept in sync; flat merging (mergeMembers) fuses
// member lists for level-0 consolidation, otherwise members concatenate as
// child lists. Returns the compacted groups and updated groupOf. If no
// feasible merge exists the loop stops early (validation downstream
// reports the shortfall).
func greedyMerge(ctx context.Context, h *hypergraph.Hypergraph, groups []gfmGroup, groupOf []int, target int,
	feasible func(a, b gfmGroup) bool, mergeMembers bool) ([]gfmGroup, []int, error) {
	dead := make([]bool, len(groups))
	alive := len(groups)
	parent := make([]int, len(groups))
	for i := range parent {
		parent[i] = i
	}
	find := func(g int) int {
		for parent[g] != g {
			parent[g] = parent[parent[g]]
			g = parent[g]
		}
		return g
	}

	for alive > target {
		if err := gfmInterrupted(ctx); err != nil {
			return nil, nil, err
		}
		// Connectivity between live groups.
		conn := map[[2]int]float64{}
		for e := 0; e < h.NumNets(); e++ {
			touched := map[int]bool{}
			for _, v := range h.Pins(hypergraph.NetID(e)) {
				touched[find(groupOf[v])] = true
			}
			if len(touched) < 2 {
				continue
			}
			gs := make([]int, 0, len(touched))
			for g := range touched {
				gs = append(gs, g)
			}
			// The pair accumulation below is commutative either way (pairs
			// are canonicalized before the +=), but sorted keys make the
			// enumeration order-independent by construction.
			sort.Ints(gs)
			c := h.NetCapacity(hypergraph.NetID(e))
			for i := 0; i < len(gs); i++ {
				for j := i + 1; j < len(gs); j++ {
					a, b := gs[i], gs[j]
					if a > b {
						a, b = b, a
					}
					conn[[2]int{a, b}] += c
				}
			}
		}
		bestA, bestB := -1, -1
		bestConn := -1.0
		// Scan candidate pairs in canonical order: ranging over the map
		// directly made the argmax tie-break follow Go's randomized map
		// iteration, so equal-connectivity merges — common on symmetric
		// netlists — picked different pairs run to run and GFM's output was
		// not a function of its seed. Sorted, ties go to the
		// lexicographically smallest pair.
		pairs := make([][2]int, 0, len(conn))
		for pair := range conn {
			pairs = append(pairs, pair)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		for _, pair := range pairs {
			a, b := pair[0], pair[1]
			if dead[a] || dead[b] || !feasible(groups[a], groups[b]) {
				continue
			}
			if c := conn[pair]; c > bestConn {
				bestA, bestB, bestConn = a, b, c
			}
		}
		if bestA < 0 {
			// No connected feasible pair: fall back to the smallest
			// combined size among all feasible pairs.
			bestSize := int64(1<<62 - 1)
			for a := 0; a < len(groups); a++ {
				if dead[a] {
					continue
				}
				for b := a + 1; b < len(groups); b++ {
					if dead[b] || !feasible(groups[a], groups[b]) {
						continue
					}
					if s := groups[a].size + groups[b].size; s < bestSize {
						bestA, bestB, bestSize = a, b, s
					}
				}
			}
		}
		if bestA < 0 {
			break // stuck; caller's validation reports if this matters
		}
		if mergeMembers {
			groups[bestA].nodes = append(groups[bestA].nodes, groups[bestB].nodes...)
		} else {
			groups[bestA].members = append(groups[bestA].members, groups[bestB].members...)
		}
		groups[bestA].size += groups[bestB].size
		groups[bestA].children += groups[bestB].children
		dead[bestB] = true
		parent[bestB] = bestA
		alive--
	}

	// Compact.
	remap := make([]int, len(groups))
	var out []gfmGroup
	for i := range groups {
		if dead[i] {
			continue
		}
		remap[i] = len(out)
		out = append(out, groups[i])
	}
	newGroupOf := make([]int, len(groupOf))
	for v := range groupOf {
		newGroupOf[v] = remap[find(groupOf[v])]
	}
	return out, newGroupOf, nil
}

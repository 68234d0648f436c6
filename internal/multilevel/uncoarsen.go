package multilevel

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fm"
	"repro/internal/hierarchy"
	"repro/internal/obs"
)

// UncoarsenOptions tunes the projection/refinement descent.
type UncoarsenOptions struct {
	// MaxPasses bounds the boundary-refinement passes per level. Default 8.
	MaxPasses int
	// Seed derives the per-level refinement orders. Default 1.
	Seed int64
	// Observer receives the per-level KindLevel events and the refinement
	// trace (refine-pass events, refine-boundary spans). Nil disables
	// telemetry at zero cost.
	Observer obs.Observer
	// Span nests the descent's events in the caller's span tree: each
	// level mints one child span, and that level's refinement nests
	// under it. Zero value is fine.
	Span obs.SpanScope
}

func (o UncoarsenOptions) withDefaults() UncoarsenOptions {
	if o.MaxPasses == 0 {
		o.MaxPasses = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Project maps a partition of Levels[i].Coarse one level down, onto the
// next-finer hypergraph: every fine node inherits the leaf of its cluster.
// The projection is exact in both feasibility and cost — cluster sizes are
// the sums of their members' sizes, so every block size is unchanged, and
// ContractDedup preserved the capacity mass of every crossing net while the
// dropped (intra-cluster) nets have zero span — so the fine partition costs
// exactly what the coarse one did. The tree is deep-copied; cp is not
// modified.
func (s *Stack) Project(i int, cp *hierarchy.Partition) (*hierarchy.Partition, error) {
	if i < 0 || i >= len(s.Levels) {
		return nil, fmt.Errorf("multilevel: project level %d of %d", i, len(s.Levels))
	}
	lv := s.Levels[i]
	if cp.H != lv.Coarse {
		return nil, fmt.Errorf("multilevel: partition is not over level %d's coarse graph", i)
	}
	fineH := s.graphAbove(i)
	cl := cp.Clone()
	fp := &hierarchy.Partition{H: fineH, Spec: cp.Spec, Tree: cl.Tree,
		LeafOf: make([]int32, fineH.NumNodes())}
	for v := range fp.LeafOf {
		fp.LeafOf[v] = cp.LeafOf[lv.ClusterOf[v]]
	}
	return fp, nil
}

// Uncoarsen descends the stack: starting from a partition of the coarsest
// hypergraph, it projects one level down and runs boundary-localized FM
// refinement there, repeating until it reaches Stack.Fine. Refinement at
// each level honours ctx; once the context fires, the remaining levels are
// projected straight down without refinement — projection is cheap, pure,
// and cost-preserving, so even an expired deadline still yields a valid
// partition of the fine graph whose cost equals the best refined level
// (this is the multilevel analogue of FLOW's mid-metric salvage).
//
// Returns the fine-level partition, its cost, and the number of levels
// whose refinement was skipped by cancellation (0 on a full descent).
func (s *Stack) Uncoarsen(ctx context.Context, cp *hierarchy.Partition, cost float64, opt UncoarsenOptions) (*hierarchy.Partition, float64, int, error) {
	opt = opt.withDefaults()
	if len(s.Levels) > 0 && cp.H != s.Coarsest() {
		return nil, 0, 0, fmt.Errorf("multilevel: partition is not over the coarsest graph")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	p := cp
	salvaged := 0
	// One refiner serves every level. Project keeps the tree's shape, and
	// no level needs more scratch than the finest graph.
	var ref fm.BoundaryRefiner
	if len(s.Levels) > 0 {
		ref.Reserve(s.Fine, cp.Tree, cp.Spec)
	}
	for i := len(s.Levels) - 1; i >= 0; i-- {
		var t0 time.Time
		var lvlSpan obs.SpanID
		if opt.Observer != nil {
			t0 = time.Now()
			lvlSpan = opt.Span.Mint()
		}
		fp, err := s.Project(i, p)
		if err != nil {
			return nil, 0, 0, err
		}
		p = fp
		// The per-level seed is drawn whether or not refinement runs, so a
		// deadline changes only how far refinement got, never the schedule
		// of the levels it did reach.
		seed := rng.Int63()
		if ctx.Err() != nil {
			salvaged++
		} else {
			cost, _ = ref.RefineCtx(ctx, p, fm.BoundaryOptions{
				MaxPasses: opt.MaxPasses,
				Rng:       rand.New(rand.NewSource(seed)),
				Observer:  opt.Observer,
				Span:      obs.SpanScope{Ctx: opt.Span.Ctx, Parent: lvlSpan},
			})
		}
		if opt.Observer != nil {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindLevel, Phase: "uncoarsen",
				Round: len(s.Levels) - i, Active: p.H.NumNodes(), Cost: cost,
				Span: lvlSpan, Parent: opt.Span.Parent,
				ElapsedMS: obs.Millis(time.Since(t0))})
		}
	}
	return p, cost, salvaged, nil
}

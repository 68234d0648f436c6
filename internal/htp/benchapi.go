package htp

import (
	"context"

	"repro/internal/flowrefine"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
)

// MultilevelOptions and MultilevelCtx keep the V-cycle call that bench/ (a
// module of its own) compiles against; bench/ is their only caller. Every
// solve in this module runs through PipelineCtx with Pipeline.Multilevel
// set, which is all MultilevelCtx does. They go once bench/ traces the
// program's own runs instead of re-composing them (bench/compose.go).
type MultilevelOptions struct {
	Strategy      string // Pipeline.Algo
	CoarsenTarget int
	Seed          int64
	Workers       int
	FlowRefine    bool // run FlowRefineOpt as the flow-refine step
	FlowRefineOpt flowrefine.Options
}

// MultilevelCtx runs the V-cycle opt describes; see Pipeline.
func MultilevelCtx(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt MultilevelOptions) (*Result, error) {
	p := Pipeline{Algo: opt.Strategy, Seed: opt.Seed,
		Multilevel: &Multilevel{CoarsenTarget: opt.CoarsenTarget, Workers: opt.Workers}}
	if opt.FlowRefine {
		p.FlowRefine = &opt.FlowRefineOpt
	}
	res, _, err := PipelineCtx(ctx, h, spec, p)
	return res, err
}

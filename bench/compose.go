package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/anytime"
	"repro/internal/flowrefine"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/multilevel"
	"repro/internal/verify"
)

// The traced runs below re-compose the solver from its layers' public
// entry points — one call per layer, in exactly the order and with exactly
// the seeds htp.FlowCtx and htp.MultilevelCtx use — so the benchmark can
// time each layer from outside the program. compose_test.go pins them to
// the real entry points bit for bit; if a default in the V-cycle changes,
// that test fails instead of the per-layer split silently describing
// another program.

// spanRec is one timed call into a layer. IDs are minted parent-first, as
// the program's own spans are, so a trace written from these lines up with
// htptrace.
type spanRec struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Phase  string  `json:"phase"`
	Start  int64   `json:"start_ns"`
	Dur    int64   `json:"dur_ns"`
	Alloc  uint64  `json:"alloc_bytes"`
	Cost   float64 `json:"cost,omitempty"`
}

// layerCounts are the work counts seen at layer boundaries.
type layerCounts struct {
	Levels        int     `json:"levels"`
	CoarsestNodes int     `json:"coarsest_nodes"`
	CoarsestPins  int     `json:"coarsest_pins"`
	Rounds        int     `json:"rounds"`
	Injections    int     `json:"injections"`
	TreeNets      int     `json:"tree_nets"`
	Builds        int     `json:"builds"`
	BuildsOK      int     `json:"builds_ok"`
	UncoarsenGain float64 `json:"uncoarsen_gain"`
	Pairs         int     `json:"pairs"`
	Accepted      int     `json:"accepted"`
	RefineGain    float64 `json:"refine_gain"`
}

// recorder keeps spans in memory; they are written out when the run ends.
// Each span also records the bytes allocated while it was open.
type recorder struct {
	origin time.Time
	spans  []spanRec
	open   []int
	counts layerCounts
	ms     runtime.MemStats
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its handle.
func (r *recorder) begin(phase string) int {
	runtime.ReadMemStats(&r.ms)
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, spanRec{ID: len(r.spans) + 1, Parent: parent, Phase: phase,
		Alloc: r.ms.TotalAlloc, Start: int64(time.Since(r.origin))})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

// end closes the span i, which must be the innermost open one.
func (r *recorder) end(i int, cost float64) {
	now := int64(time.Since(r.origin))
	runtime.ReadMemStats(&r.ms)
	s := &r.spans[i]
	s.Dur = now - s.Start
	s.Alloc = r.ms.TotalAlloc - s.Alloc
	s.Cost = cost
	r.open = r.open[:len(r.open)-1]
}

// selfTimes folds the spans into per-phase self time (seconds) and self
// allocation (bytes): a span's duration minus its children's.
func selfTimes(spans []spanRec) (secs map[string]float64, bytes map[string]float64) {
	childDur := map[int]int64{}
	childAlloc := map[int]uint64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childDur[s.Parent] += s.Dur
			childAlloc[s.Parent] += s.Alloc
		}
	}
	secs, bytes = map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		secs[s.Phase] += float64(s.Dur-childDur[s.ID]) / 1e9
		if a := childAlloc[s.ID]; a < s.Alloc {
			bytes[s.Phase] += float64(s.Alloc - a)
		}
	}
	return secs, bytes
}

// flatParams are the htp.FlowOptions a flat run uses: Iterations metric
// computations, PerMetric constructions from each, sequentially.
type flatParams struct {
	Iterations int
	PerMetric  int
	Seed       int64
	Workers    int // inject.Options.Workers
	MaxRounds  int // inject.Options.MaxRounds; 0 = the engine default
}

// composeFlat is htp.FlowCtx's sequential schedule (Parallel off), one
// layer call at a time: per iteration a "metric" span around
// inject.ComputeMetricCtx and a "build" span around each htp.BuildCtx. The
// caller's open span (construct) is their parent.
func composeFlat(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p flatParams, rec *recorder) (*htp.Result, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	type iterSeeds struct {
		inject int64
		builds []int64
	}
	seeds := make([]iterSeeds, p.Iterations)
	for i := range seeds {
		seeds[i].inject = rng.Int63()
		seeds[i].builds = make([]int64, p.PerMetric)
		for c := range seeds[i].builds {
			seeds[i].builds[c] = rng.Int63()
		}
	}
	best := &htp.Result{Iterations: p.Iterations}
	converged := true
	for i := 0; i < p.Iterations; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := rec.begin("metric")
		m, st, err := inject.ComputeMetricCtx(ctx, h, spec, inject.Options{
			Rng: rand.New(rand.NewSource(seeds[i].inject)), Workers: p.Workers, MaxRounds: p.MaxRounds})
		rec.end(sp, 0)
		if err != nil {
			return nil, fmt.Errorf("metric of iteration %d: %w", i+1, err)
		}
		rec.counts.Rounds += st.Rounds
		rec.counts.Injections += st.Injections
		rec.counts.TreeNets += st.TreeNets
		best.MetricStats.Rounds += st.Rounds
		best.MetricStats.Injections += st.Injections
		best.MetricStats.TreeNets += st.TreeNets
		best.MetricStats.MaxFlow = max(best.MetricStats.MaxFlow, st.MaxFlow)
		converged = converged && st.Converged

		var iterBest *hierarchy.Partition
		var iterCost float64
		for c := 0; c < p.PerMetric; c++ {
			sp := rec.begin("build")
			part, err := htp.BuildCtx(ctx, h, spec, m.D, htp.BuildOptions{Rng: rand.New(rand.NewSource(seeds[i].builds[c]))})
			if err == nil {
				err = part.Validate()
			}
			cost := 0.0
			if err == nil {
				cost = part.Cost()
			}
			rec.end(sp, cost)
			rec.counts.Builds++
			if err != nil {
				best.Failures = append(best.Failures, err)
				continue
			}
			rec.counts.BuildsOK++
			if iterBest == nil || cost < iterCost {
				iterBest, iterCost = part, cost
			}
		}
		if iterBest != nil && (best.Partition == nil || iterCost < best.Cost) {
			best.Partition, best.Cost = iterBest, iterCost
		}
	}
	best.MetricStats.Converged = converged
	if best.Partition == nil {
		return nil, fmt.Errorf("no construction succeeded: %w", errors.Join(append([]error{anytime.ErrNoPartition}, best.Failures...)...))
	}
	best.Stop = anytime.StopConverged
	if !converged {
		best.Stop = anytime.StopMaxRounds
	}
	return best, nil
}

// flatRun is the paper's Algorithm 1 as htpart -algo flow runs it, traced:
// a construct span over the iterations.
func flatRun(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p flatParams, rec *recorder) (*htp.Result, error) {
	sp := rec.begin("construct")
	res, err := composeFlat(ctx, h, spec, p, rec)
	cost := 0.0
	if res != nil {
		cost = res.Cost
	}
	rec.end(sp, cost)
	return res, err
}

// vcycleParams are the htp.MultilevelOptions of htpart -multilevel
// -flow-refine: strategy "flow", flow refinement certified per batch.
type vcycleParams struct {
	Workers       int
	Seed          int64
	CoarsenTarget int
}

// vcycleRun is htp.MultilevelCtx with FlowRefine and Certify set, one layer
// call at a time: Coarsen → construct (metric, builds) on the coarsest
// level, dropping a level and retrying when it is unpackable → Uncoarsen
// (FM only) → flowrefine.RefineCtx with the seed Uncoarsen would derive.
func vcycleRun(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p vcycleParams, rec *recorder) (*htp.Result, error) {
	maxCluster := h.TotalSize() / int64(p.CoarsenTarget)
	if half := (spec.Capacity[0] + 1) / 2; maxCluster > half {
		maxCluster = half
	}
	maxCluster = max(maxCluster, 1)

	sp := rec.begin("coarsen")
	stack, err := multilevel.Coarsen(ctx, h, multilevel.CoarsenOptions{
		TargetNodes: p.CoarsenTarget, MaxClusterSize: maxCluster, Workers: p.Workers, Seed: p.Seed})
	rec.end(sp, 0)
	if err != nil {
		return nil, fmt.Errorf("coarsen: %w", err)
	}
	rec.counts.Levels = len(stack.Levels)
	rec.counts.CoarsestNodes = stack.Coarsest().NumNodes()
	rec.counts.CoarsestPins = stack.Coarsest().NumPins()

	// The V-cycle's coarse stage: one metric with a bounded sweep budget,
	// amortized over two constructions.
	coarse := flatParams{Iterations: 1, PerMetric: 2, Seed: p.Seed, MaxRounds: 24}
	sp = rec.begin("construct")
	res, err := composeFlat(ctx, stack.Coarsest(), spec, coarse, rec)
	for err != nil && errors.Is(err, anytime.ErrNoPartition) && ctx.Err() == nil && len(stack.Levels) > 0 {
		stack.Levels = stack.Levels[:len(stack.Levels)-1]
		res, err = composeFlat(ctx, stack.Coarsest(), spec, coarse, rec)
	}
	if err != nil {
		rec.end(sp, 0)
		return nil, fmt.Errorf("construct: %w", err)
	}
	rec.end(sp, res.Cost)

	sp = rec.begin("uncoarsen")
	part, cost, _, err := stack.Uncoarsen(ctx, res.Partition, res.Cost, multilevel.UncoarsenOptions{
		MaxPasses: 8, Seed: p.Seed + 11})
	rec.end(sp, cost)
	if err != nil {
		return nil, fmt.Errorf("uncoarsen: %w", err)
	}
	rec.counts.UncoarsenGain = res.Cost - cost

	sp = rec.begin("flow-refine")
	refined, gain, st, err := flowrefine.RefineCtx(ctx, part, flowrefine.Options{
		Seed: p.Seed + 11 + 29, Workers: p.Workers, Certify: verify.Certifier()})
	rec.end(sp, refined)
	if err != nil {
		return nil, fmt.Errorf("flow-refine: %w", err)
	}
	rec.counts.Pairs, rec.counts.Accepted, rec.counts.RefineGain = st.Pairs, st.Accepted, gain

	res.Partition, res.Cost = part, refined
	return res, nil
}

// certifyRun is the certification every CLI and server path applies to a
// result before using it, traced.
func certifyRun(res *htp.Result, rec *recorder) error {
	sp := rec.begin("certify")
	rep := verify.Result(res)
	rec.end(sp, rep.Cost)
	return rep.Err()
}

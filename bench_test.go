// Benchmarks regenerating the paper's experiments, one family per table or
// figure (see DESIGN.md §4 for the index and EXPERIMENTS.md for recorded
// results). Run them all with:
//
//	go test -bench=. -benchmem
//
// The benchmark bodies measure the same code paths cmd/experiments reports;
// smaller circuits keep -bench runs tractable while the command covers the
// full sizes.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/multilevel"
)

// benchCircuit caches generated circuits across benchmark iterations.
var benchCircuits = map[string]*repro.Hypergraph{}

func circuit(b *testing.B, name string) *repro.Hypergraph {
	b.Helper()
	if h, ok := benchCircuits[name]; ok {
		return h
	}
	cs, err := repro.CircuitByName(name)
	if err != nil {
		b.Fatal(err)
	}
	h := repro.GenerateCircuit(cs, 1)
	benchCircuits[name] = h
	return h
}

func paperSpec(b *testing.B, h *repro.Hypergraph) repro.Spec {
	b.Helper()
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 4, repro.GeometricWeights(4, 2), 1.1)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// BenchmarkTable1Generate measures benchmark-circuit generation (Table 1's
// workload).
func BenchmarkTable1Generate(b *testing.B) {
	for _, name := range []string{"c1355", "c2670", "c7552"} {
		b.Run(name, func(b *testing.B) {
			cs, err := repro.CircuitByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				repro.GenerateCircuit(cs, int64(i+1))
			}
		})
	}
}

// BenchmarkTable2 measures the three constructive algorithms (Table 2's
// rows) on the two smaller circuits.
func BenchmarkTable2(b *testing.B) {
	for _, name := range []string{"c1355", "c2670"} {
		h := circuit(b, name)
		spec := paperSpec(b, h)
		b.Run("FLOW/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 1, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Cost, "cost")
			}
		})
		b.Run("RFM/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := repro.RFMCtx(context.Background(), h, spec, repro.RFMOptions{Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Cost, "cost")
			}
		})
		b.Run("GFM/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := repro.GFMCtx(context.Background(), h, spec, repro.GFMOptions{Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Cost, "cost")
			}
		})
	}
}

// BenchmarkTable3 measures the FM-refined "+" variants (Table 3's rows).
func BenchmarkTable3(b *testing.B) {
	h := circuit(b, "c1355")
	spec := paperSpec(b, h)
	for _, algo := range []string{"flow+", "rfm+", "gfm+"} {
		b.Run(strings.ToUpper(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, _, err := repro.PipelineCtx(context.Background(), h, spec, repro.Pipeline{Algo: algo,
					Seed: int64(i + 1), Flow: repro.FlowOptions{Iterations: 1}})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Cost, "cost")
			}
		})
	}
}

// BenchmarkFigure2Flow measures FLOW rediscovering the worked example's
// optimum (Figure 2).
func BenchmarkFigure2Flow(b *testing.B) {
	h, spec, _ := repro.Figure2()
	for i := 0; i < b.N; i++ {
		res, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 1, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cost, "cost")
	}
}

// BenchmarkFigure2LowerBound measures the exact LP bound on the worked
// example (Lemma 2 / Figure 2 annotation).
func BenchmarkFigure2LowerBound(b *testing.B) {
	h, spec, _ := repro.Figure2()
	for i := 0; i < b.N; i++ {
		lb, err := repro.ExactLowerBoundCtx(context.Background(), h, spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lb.Value, "bound")
	}
}

// BenchmarkAlg2Scaling measures the spreading-metric computation across
// sizes (the §3.3 claim that Algorithm 2 dominates). Each size runs the
// exact sequential engine (w1) and the batched engine at NumCPU workers
// (wN), each with GOMAXPROCS pinned to its worker count, so `make bench`
// records the parallel speedup; on a single-core machine the two coincide
// by construction.
func BenchmarkAlg2Scaling(b *testing.B) {
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, n := range []int{128, 512, 2048} {
		cs := repro.CircuitSpec{Name: "scale", Gates: n, PIs: n / 16, POs: n / 16}
		h := repro.GenerateCircuit(cs, 1)
		spec := paperSpec(b, h)
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
				for i := 0; i < b.N; i++ {
					if _, _, err := repro.ComputeSpreadingMetricCtx(context.Background(), h, spec, repro.InjectOptions{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAlg2Coarse measures Algorithm 2 on the shape the V-cycle hands
// it: the coarsest level of ScaledCircuit(n) under the V-cycle's coarsening
// defaults (about 350 heavy nodes of average degree 70-270), with its
// 24-round sweep budget. Coarsening runs outside the timer. Unlike the flat
// Alg2Scaling rows, growth here is dominated by pin visits that cannot move
// the heap.
func BenchmarkAlg2Coarse(b *testing.B) {
	for _, n := range []int{16384, 65536} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			h := scaledCircuit(n)
			spec := paperSpec(b, h)
			coarse := coarsen(b, h, spec).Coarsest()
			runtime.GC() // collect coarsening's garbage before the timed region
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := repro.ComputeSpreadingMetricCtx(context.Background(), coarse, spec, repro.InjectOptions{MaxRounds: 24}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scaledCircuit returns ScaledCircuit(n) generated with seed 1, cached.
func scaledCircuit(n int) *repro.Hypergraph {
	cs := repro.ScaledCircuit(n)
	h, ok := benchCircuits[cs.Name]
	if !ok {
		h = repro.GenerateCircuit(cs, 1)
		benchCircuits[cs.Name] = h
	}
	return h
}

// coarsen coarsens h as the V-cycle does by default: 300 target nodes,
// clusters capped at min(s(V)/300, ceil(C_0/2)), one worker, seed 1.
func coarsen(b *testing.B, h *repro.Hypergraph, spec repro.Spec) *multilevel.Stack {
	b.Helper()
	const target = 300
	maxCluster := max(min(h.TotalSize()/target, (spec.Capacity[0]+1)/2), 1)
	stack, err := multilevel.Coarsen(context.Background(), h, multilevel.CoarsenOptions{
		TargetNodes: target, MaxClusterSize: maxCluster, Workers: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return stack
}

// BenchmarkUncoarsen measures the V-cycle's FM descent alone (DESIGN.md
// §5h): coarsening and the coarse FLOW solve (one metric of 24 rounds, two
// constructions) run outside the timer, as the V-cycle runs them at seed 1,
// and every iteration projects and refines from the same coarse partition
// down to ScaledCircuit(n), with the V-cycle's 8 passes per level and its
// descent seed. Uncoarsen leaves the coarse partition unmodified. The cost
// metric records the descended cost.
func BenchmarkUncoarsen(b *testing.B) {
	for _, n := range []int{16384, 65536} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			h := scaledCircuit(n)
			spec := paperSpec(b, h)
			stack := coarsen(b, h, spec)
			res, err := repro.FlowCtx(context.Background(), stack.Coarsest(), spec, repro.FlowOptions{
				Iterations: 1, PartitionsPerMetric: 2, Seed: 1, Inject: repro.InjectOptions{MaxRounds: 24}})
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC() // collect the coarse solve's garbage before the timed region
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, cost, _, err := stack.Uncoarsen(context.Background(), res.Partition, res.Cost,
					multilevel.UncoarsenOptions{MaxPasses: 8, Seed: 1 + 11})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(cost, "cost")
			}
		})
	}
}

// BenchmarkAlg3Scaling measures the top-down construction alone across
// sizes (the §3.3 claim that Algorithm 3 is cheap, ~O((n+p) log n)): the
// spreading metric is computed once outside the timed loop and every
// iteration rebuilds the partition from it via BuildFromMetricCtx.
func BenchmarkAlg3Scaling(b *testing.B) {
	for _, n := range []int{128, 512, 2048} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			cs := repro.CircuitSpec{Name: "scale", Gates: n, PIs: n / 16, POs: n / 16}
			h := repro.GenerateCircuit(cs, 1)
			spec := paperSpec(b, h)
			m, _, err := repro.ComputeSpreadingMetricCtx(context.Background(), h, spec, repro.InjectOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := repro.BuildFromMetricCtx(context.Background(), h, spec, m, repro.BuildOptions{})
				if err != nil {
					b.Fatal(err)
				}
				_ = p
			}
		})
	}
}

// BenchmarkFlowSchedule measures Algorithm 1 as `htpart -algo flow -n 4`
// runs it on c7552, with FLOW's iteration pool one worker wide (procs1:
// GOMAXPROCS 1, the iterations run inline one after another) and two wide
// (procs2). The result is identical; on two CPUs the four iterations run
// in two waves instead of four.
func BenchmarkFlowSchedule(b *testing.B) {
	h := circuit(b, "c7552")
	spec := paperSpec(b, h)
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("c7552/procs%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < b.N; i++ {
				res, err := repro.FlowCtx(context.Background(), h, spec, repro.FlowOptions{Iterations: 4, Seed: 1,
					Inject: repro.InjectOptions{Workers: 1}})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Cost, "cost")
			}
		})
	}
}

// BenchmarkFlowRefine measures the flow-based pairwise refinement stage
// alone (DESIGN.md §5k): each iteration clones an FM-refined V-cycle result
// and runs one full RefineCtx pass over it, so the timing isolates corridor
// extraction, the pair min-cuts, and batch application — not the V-cycle
// that produced the input. The cost metric records the refined cost.
func BenchmarkFlowRefine(b *testing.B) {
	for _, name := range []string{"c1355", "c7552"} {
		h := circuit(b, name)
		spec := paperSpec(b, h)
		base, _, err := repro.PipelineCtx(context.Background(), h, spec, repro.Pipeline{Seed: 1, Multilevel: &repro.Multilevel{}})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := base.Partition.Clone()
				cost, _, _, err := repro.FlowRefineCtx(context.Background(), p, repro.FlowRefineOptions{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(cost, "cost")
			}
		})
	}
}

// BenchmarkAblation measures the FLOW design variants of DESIGN.md §5.
func BenchmarkAblation(b *testing.B) {
	h := circuit(b, "c1355")
	spec := paperSpec(b, h)
	variants := map[string]repro.FlowOptions{
		"defaults":     {Iterations: 1},
		"coarseDelta":  {Iterations: 1, Inject: repro.InjectOptions{Delta: 0.5, Alpha: 1}},
		"polishedCuts": {Iterations: 1, Build: repro.BuildOptions{PolishCuts: true}},
		"fixedLB":      {Iterations: 1, Build: repro.BuildOptions{FixedLB: true}},
	}
	for name, opt := range variants {
		opt := opt
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := opt
				o.Seed = int64(i + 1)
				res, err := repro.FlowCtx(context.Background(), h, spec, o)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Cost, "cost")
			}
		})
	}
}

// BenchmarkRefinement measures the FM hierarchical refinement pass alone.
func BenchmarkRefinement(b *testing.B) {
	h := circuit(b, "c1355")
	spec := paperSpec(b, h)
	base, err := repro.RFMCtx(context.Background(), h, spec, repro.RFMOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base.Partition.Clone()
		repro.RefineCtx(context.Background(), p, repro.RefineOptions{})
	}
}

// BenchmarkFlatRefine measures the flat "+" refinement step alone on a
// large synthetic: each iteration clones a GFM partition of
// ScaledCircuit(16384) and runs RefineCtx over it with default options.
// Unlike the V-cycle's boundary refiner it scans every net, giant ones
// included.
func BenchmarkFlatRefine(b *testing.B) {
	h := scaledCircuit(16384)
	spec := paperSpec(b, h)
	base, err := repro.GFMCtx(context.Background(), h, spec, repro.GFMOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("n16384", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := base.Partition.Clone()
			cost, _ := repro.RefineCtx(context.Background(), p, repro.RefineOptions{})
			b.ReportMetric(cost, "cost")
		}
	})
}

// BenchmarkMultilevelScaling measures the multilevel V-cycle end-to-end
// across the synthetic scale rungs. The claim under test (DESIGN.md §5h):
// near-linear growth in gate count, because coarsening is O(pins) per
// level, the coarse-level solve is constant-size, and uncoarsening only
// touches the boundary.
func BenchmarkMultilevelScaling(b *testing.B) {
	for _, n := range []int{2048, 16384, 65536, 262144} {
		h := scaledCircuit(n)
		spec := paperSpec(b, h)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := repro.PipelineCtx(context.Background(), h, spec, repro.Pipeline{Seed: 1, Multilevel: &repro.Multilevel{}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

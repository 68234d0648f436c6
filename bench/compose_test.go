package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/flowrefine"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/verify"
)

// sameResult fails unless got is bit-for-bit the program's result: cost,
// tree, leaf assignment, stop reason and metric statistics.
func sameResult(t *testing.T, what string, want, got *htp.Result) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Errorf("%s: cost %v, program %v", what, got.Cost, want.Cost)
	}
	if !reflect.DeepEqual(hierarchy.DumpPartition(got.Partition, got.Cost), hierarchy.DumpPartition(want.Partition, want.Cost)) {
		t.Errorf("%s: partition (tree or LeafOf) differs from the program's", what)
	}
	if got.Stop != want.Stop || got.Iterations != want.Iterations || got.MetricStats != want.MetricStats {
		t.Errorf("%s: stop %s iters %d stats %+v; program stop %s iters %d stats %+v", what,
			got.Stop, got.Iterations, got.MetricStats, want.Stop, want.Iterations, want.MetricStats)
	}
	if err := verify.Result(got).Err(); err != nil {
		t.Errorf("%s: %v", what, err)
	}
}

func phases(rec *recorder) map[string]int {
	n := map[string]int{}
	for _, s := range rec.spans {
		n[s.Phase]++
	}
	return n
}

// TestComposeMatchesProgram pins the traced re-compositions to the
// program's entry points: flatRun to htp.FlowCtx, vcycleRun to
// htp.MultilevelCtx with FlowRefine and Certify, at Workers 1 and 2.
func TestComposeMatchesProgram(t *testing.T) {
	ctx := context.Background()
	c1355, err := circuits.ByName("c1355")
	if err != nil {
		t.Fatal(err)
	}
	instances := []struct {
		name  string
		h     *hypergraph.Hypergraph
		iters int // flat FLOW iterations: one keeps the 4096-gate case quick
	}{
		{"c1355", circuits.Generate(c1355, 1), 4},
		{"synth4096", circuits.Generate(circuits.Scaled(4096), 1), 1},
	}
	for _, in := range instances {
		spec, err := paperSpec(in.h)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			want, err := htp.FlowCtx(ctx, in.h, spec, htp.FlowOptions{Iterations: in.iters, PartitionsPerMetric: 1,
				Seed: 1, Inject: inject.Options{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			got, err := flatRun(ctx, in.h, spec, flatParams{Iterations: in.iters, PerMetric: 1, Seed: 1, Workers: workers}, rec)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, in.name+" flat", want, got)
			if p := phases(rec); p["construct"] != 1 || p["metric"] != in.iters || p["build"] != in.iters {
				t.Errorf("%s flat spans %v", in.name, p)
			}

			want, err = htp.MultilevelCtx(ctx, in.h, spec, htp.MultilevelOptions{Strategy: "flow", Seed: 1,
				Workers: workers, FlowRefine: true, FlowRefineOpt: flowrefine.Options{Certify: verify.Certifier()}})
			if err != nil {
				t.Fatal(err)
			}
			rec = newRecorder()
			got, err = vcycleRun(ctx, in.h, spec, vcycleParams{Workers: workers, Seed: 1, CoarsenTarget: 300}, rec)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, in.name+" V-cycle", want, got)
			p := phases(rec)
			for _, ph := range []string{"coarsen", "construct", "uncoarsen", "flow-refine"} {
				if p[ph] != 1 {
					t.Errorf("%s V-cycle spans %v: want one %s", in.name, p, ph)
				}
			}
			// c1355 is too small to coarsen: its cluster-size cap is one node.
			if (in.name != "c1355" && rec.counts.Levels == 0) || rec.counts.Pairs == 0 {
				t.Errorf("%s V-cycle counts %+v: no coarsening or no refinement pairs", in.name, rec.counts)
			}
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Phase: "run", Dur: 100, Alloc: 1000},
		{ID: 2, Parent: 1, Phase: "construct", Dur: 70, Alloc: 600},
		{ID: 3, Parent: 2, Phase: "metric", Dur: 50, Alloc: 100},
		{ID: 4, Parent: 2, Phase: "build", Dur: 15, Alloc: 400},
		{ID: 5, Parent: 1, Phase: "certify", Dur: 20, Alloc: 10},
	}
	secs, alloc := selfTimes(spans)
	want := map[string]float64{"run": 10e-9, "construct": 5e-9, "metric": 50e-9, "build": 15e-9, "certify": 20e-9}
	var sum float64
	for ph, w := range want {
		if d := secs[ph] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("self %s = %v, want %v", ph, secs[ph], w)
		}
		sum += secs[ph]
	}
	if d := sum - 100e-9; d > 1e-15 || d < -1e-15 {
		t.Errorf("self times sum to %v, want the root's 100ns", sum)
	}
	if alloc["construct"] != 100 || alloc["run"] != 390 {
		t.Errorf("self alloc %v", alloc)
	}
}

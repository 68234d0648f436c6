package inject

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/circuits"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
)

// coarseLevel returns the coarsest level of ScaledCircuit(16384) under the
// V-cycle's coarsening defaults (the BenchmarkAlg2Coarse/n16384 instance)
// and htpart's default hierarchy.
func coarseLevel(t *testing.T) (*hypergraph.Hypergraph, hierarchy.Spec) {
	t.Helper()
	h := circuits.Generate(circuits.Scaled(16384), 1)
	spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	const target = 300
	stack, err := multilevel.Coarsen(context.Background(), h, multilevel.CoarsenOptions{
		TargetNodes:    target,
		MaxClusterSize: max(min(h.TotalSize()/target, (spec.Capacity[0]+1)/2), 1),
		Workers:        1,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return stack.Coarsest(), spec
}

// TestCoarseMetricHashes pins the metric and Stats of the 24-round sweep
// the V-cycle runs on coarseLevel, for the sequential sweep and the
// batched engine. On this dense level most growths touch every node early,
// so they read incidence by length from the engine's snapshot. The values
// were recorded while every growth still scanned each settled node's whole
// incidence list, so they check that the snapshot moves no bit of the
// metric.
func TestCoarseMetricHashes(t *testing.T) {
	coarse, spec := coarseLevel(t)
	cases := []struct {
		workers int
		want    uint64
		st      Stats
	}{
		{1, 0x0f916bf0b568e89a, Stats{Rounds: 15, Injections: 4206, TreeNets: 126282, Converged: true, MaxFlow: 2.4201000000000015}},
		{2, 0x61e71075df9fe305, Stats{Rounds: 15, Injections: 4478, TreeNets: 128441, Converged: true, MaxFlow: 2.6001000000000016}},
	}
	for _, tc := range cases {
		m, st, err := ComputeMetricCtx(context.Background(), coarse, spec, Options{
			Rng:       rand.New(rand.NewSource(1)),
			Workers:   tc.workers,
			MaxRounds: 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := metricHash(m); got != tc.want || st != tc.st {
			t.Errorf("workers=%d: metric hash %#016x, stats %#v; want %#016x, %#v",
				tc.workers, got, st, tc.want, tc.st)
		}
	}
}

// TestSnapshotMovesNoBit runs the engine on coarseLevel twice per engine,
// once as it runs and once with the length snapshot off from the start,
// and requires the same metric bits and Stats, with the snapshot built.
func TestSnapshotMovesNoBit(t *testing.T) {
	coarse, spec := coarseLevel(t)
	run := func(workers int, snapshot bool) (*engine, uint64) {
		g := newEngine(context.Background(), coarse, spec, Options{
			Rng: rand.New(rand.NewSource(3)), MaxRounds: 6, Workers: workers}.withDefaults())
		g.fell = !snapshot
		if workers > 1 {
			g.runParallel()
		} else {
			g.runSequential()
		}
		return g, metricHash(g.m)
	}
	for _, workers := range []int{1, 2} {
		g, got := run(workers, true)
		off, want := run(workers, false)
		if got != want || g.st != off.st {
			t.Errorf("workers=%d: metric hash %#016x, stats %+v; without the snapshot %#016x, %+v",
				workers, got, g.st, want, off.st)
		}
		if g.snap == nil {
			t.Errorf("workers=%d: no snapshot built", workers)
		}
	}
}

// TestFallingLengthsStopTheSnapshot lowers every length under a built
// snapshot, as a negative Alpha or Delta or math.Exp's last-bit wobble
// would, and checks that a grower holding the snapshot then decides every
// root, collects every violated tree and reads every incidence entry as a
// grower that never held one does.
func TestFallingLengthsStopTheSnapshot(t *testing.T) {
	coarse, spec := coarseLevel(t)
	g := newEngine(context.Background(), coarse, spec, Options{
		Rng: rand.New(rand.NewSource(1)), MaxRounds: 3}.withDefaults())
	g.runSequential()
	if g.snap == nil {
		t.Fatal("no snapshot built in 3 rounds")
	}
	held, fresh := g.newGrower(8), g.newGrower(8)
	held.spt.UseSnapshot(g.snap)
	for e := range g.flow {
		g.flow[e] /= 2
		g.relength(hypergraph.NetID(e))
	}
	if !g.fell {
		t.Fatal("falling lengths went unnoticed")
	}
	var stop atomic.Bool
	for v := 0; v < coarse.NumNodes(); v++ {
		root := hypergraph.NodeID(v)
		held.nets, fresh.nets = held.nets[:0], fresh.nets[:0]
		vh, _ := g.grow(held, root, &stop)
		vf, _ := g.grow(fresh, root, &stop)
		if vh != vf || !slices.Equal(held.nets, fresh.nets) {
			t.Fatalf("root %d: violated=%v with tree nets %v; a grower without the snapshot: %v, %v", v, vh, held.nets, vf, fresh.nets)
		}
	}
	sh, sf := held.spt.TakeScans(), fresh.spt.TakeScans()
	if sh != sf || sf == 0 {
		t.Fatalf("the grower that held the snapshot read %d incidence entries under a finite ceiling, one without %d", sh, sf)
	}
}

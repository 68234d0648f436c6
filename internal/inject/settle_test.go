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
)

// TestISCASMetricHashes pins the metric and Stats of generated ISCAS
// circuits under htpart's default hierarchy, for the sequential sweep and
// the batched engine. The c1355 and c2670 values were recorded before
// growths could retire from distances alone, and the c7552 one (the
// flat-c7552 benchmark's engine) before that pass queued nets instead of
// nodes, so they check that the distance-only pass moves no bit of the
// metric on circuits of realistic shape.
func TestISCASMetricHashes(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		want    uint64
		st      Stats
	}{
		{"c1355", 1, 0xba9c2ede56ee632d, Stats{Rounds: 2, Injections: 251, TreeNets: 8822, Converged: true, MaxFlow: 0.7601000000000003}},
		{"c1355", 2, 0xf141331ecc7ae521, Stats{Rounds: 2, Injections: 316, TreeNets: 13101, Converged: true, MaxFlow: 1.0201000000000005}},
		{"c2670", 1, 0x015a9f671b974504, Stats{Rounds: 2, Injections: 225, TreeNets: 18572, Converged: true, MaxFlow: 0.7801000000000003}},
		{"c2670", 2, 0x30dcb3edff85e806, Stats{Rounds: 2, Injections: 288, TreeNets: 23075, Converged: true, MaxFlow: 1.1401000000000006}},
		{"c7552", 1, 0x7550c4f0ff58aa03, Stats{Rounds: 2, Injections: 239, TreeNets: 50404, Converged: true, MaxFlow: 0.7601000000000003}},
	}
	for _, tc := range cases {
		cs, err := circuits.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		h := circuits.Generate(cs, 1)
		spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
		if err != nil {
			t.Fatal(err)
		}
		m, st, err := ComputeMetricCtx(context.Background(), h, spec, Options{
			Rng:     rand.New(rand.NewSource(1)),
			Workers: tc.workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := metricHash(m); got != tc.want || st != tc.st {
			t.Errorf("%s workers=%d: metric hash %#016x, stats %+v; want %#016x, %+v",
				tc.name, tc.workers, got, st, tc.want, tc.st)
		}
	}
}

// uniformInstance draws a random hypergraph whose nodes all have one size,
// 1 or 2–3, with mostly local nets of capacity 0, 1/2, 1 or 2.
func uniformInstance(rng *rand.Rand) *hypergraph.Hypergraph {
	n := 12 + rng.Intn(70)
	size := int64(1)
	if rng.Intn(2) == 0 {
		size = 2 + rng.Int63n(2)
	}
	b := hypergraph.NewBuilder()
	for v := 0; v < n; v++ {
		b.AddNode("", size)
	}
	caps := []float64{0, 0.5, 1, 2}
	for e := n + rng.Intn(2*n); e > 0; e-- {
		lo := rng.Intn(n - 1)
		span := min(n-lo, 2+rng.Intn(8))
		card := 2 + rng.Intn(min(span, 5)-1)
		pins := make([]hypergraph.NodeID, card)
		for i, p := range rng.Perm(span)[:card] {
			pins[i] = hypergraph.NodeID(lo + p)
		}
		b.AddNet("", caps[rng.Intn(len(caps))], pins...)
	}
	return b.MustBuild()
}

// TestSettleVerdictMatchesGrow checks the distance-only pass root by root:
// on random equal-size instances, under lengths taken before, during and
// after the first sweeps of a run, a grower that tries Settle first must
// reach the exact growth's verdict for every root, and a violated root
// must inject into the same tree nets.
func TestSettleVerdictMatchesGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	var violated, retired int
	for trial := 0; trial < 80; trial++ {
		h := uniformInstance(rng)
		spec := specFor(h, 1+rng.Intn(3))
		g := newEngine(context.Background(), h, spec, Options{}.withDefaults())
		if !g.uniform {
			t.Fatalf("trial %d: equal-size instance not detected", trial)
		}
		if rounds := rng.Intn(4); rounds > 0 {
			m, _, err := ComputeMetricCtx(context.Background(), h, spec, Options{
				Rng: rand.New(rand.NewSource(int64(trial))), MaxRounds: rounds})
			if err != nil {
				t.Fatal(err)
			}
			copy(g.m.D, m.D)
		}
		settle, exact := g.newGrower(8), g.newGrower(8)
		var stop atomic.Bool
		for v := 0; v < h.NumNodes(); v++ {
			root := hypergraph.NodeID(v)
			settle.retired, exact.retired = true, false
			settle.nets, exact.nets = settle.nets[:0], exact.nets[:0]
			vs, _ := g.grow(settle, root, &stop)
			ve, _ := g.grow(exact, root, &stop)
			if vs != ve {
				t.Fatalf("trial %d root %d: settle pass says violated=%v, exact growth %v", trial, v, vs, ve)
			}
			if !slices.Equal(settle.nets, exact.nets) {
				t.Fatalf("trial %d root %d: tree nets %v, exact growth %v", trial, v, settle.nets, exact.nets)
			}
			if ve {
				violated++
			} else {
				retired++
			}
		}
	}
	if violated == 0 || retired == 0 {
		t.Fatalf("vacuous: %d violated and %d retired roots", violated, retired)
	}
	t.Logf("%d violated and %d retired roots", violated, retired)
}

package verify

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
)

// FuzzEvalEquivariance drives random integer-weighted instances through the
// metamorphic transforms and demands bit-for-bit equal costs from both the
// naive certifier and the incremental evaluator. Integer capacities and
// weights keep every per-net cost term exactly representable, so float sums
// may reorder freely without rounding and exact equality is the right
// assertion; the capacity rescale uses a power of two for the same reason.
func FuzzEvalEquivariance(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(10), uint8(1))
	f.Add(int64(42), uint8(12), uint8(20), uint8(3))
	f.Add(int64(7), uint8(4), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nodes, nets, scaleExp uint8) {
		n := 2 + int(nodes)%14                   // 2..15 nodes
		m := 1 + int(nets)%24                    // 1..24 nets
		factor := math.Ldexp(1, int(scaleExp)%8) // 2^0 .. 2^7
		rng := rand.New(rand.NewSource(seed))

		b := hypergraph.NewBuilder()
		b.AddUnitNodes(n)
		for e := 0; e < m; e++ {
			deg := 2 + rng.Intn(3)
			perm := rng.Perm(n)
			if deg > n {
				deg = n
			}
			if deg < 2 {
				return
			}
			pins := make([]hypergraph.NodeID, deg)
			for i := 0; i < deg; i++ {
				pins[i] = hypergraph.NodeID(perm[i])
			}
			b.AddNet("", float64(1+rng.Intn(8)), pins...)
		}
		h, err := b.Build()
		if err != nil {
			t.Fatalf("generator produced invalid instance: %v", err)
		}
		spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 2, hierarchy.GeometricWeights(2, 2), 1.2)
		if err != nil {
			return // degenerate size for this depth; not the property under test
		}
		res, err := htp.GFMCtx(context.Background(), h, spec, htp.GFMOptions{Seed: seed})
		if err != nil {
			return
		}
		p := res.Partition

		base := Partition(p)
		if !base.OK() {
			t.Fatalf("solver emitted an invalid partition: %v", base.Err())
		}
		if base.Cost != p.Cost() {
			t.Fatalf("naive cost %.17g != incremental cost %.17g", base.Cost, p.Cost())
		}

		// Node relabeling.
		perm := rng.Perm(n)
		relabeled, err := RelabelNodes(h, perm)
		if err != nil {
			t.Fatal(err)
		}
		q, err := MapPartition(p, relabeled, perm)
		if err != nil {
			t.Fatal(err)
		}
		if rep := Partition(q); !rep.OK() || rep.Cost != base.Cost {
			t.Fatalf("node relabeling: cost %.17g -> %.17g (%v)", base.Cost, rep.Cost, rep.Err())
		}

		// Net relabeling.
		netPerm := rng.Perm(h.NumNets())
		netRelabeled, err := RelabelNets(h, netPerm)
		if err != nil {
			t.Fatal(err)
		}
		q2 := p.Clone()
		q2.H = netRelabeled
		if rep := Partition(q2); !rep.OK() || rep.Cost != base.Cost {
			t.Fatalf("net relabeling: cost %.17g -> %.17g (%v)", base.Cost, rep.Cost, rep.Err())
		}

		// Pin shuffle.
		shuffled, err := ShufflePins(h, rng)
		if err != nil {
			t.Fatal(err)
		}
		q3 := p.Clone()
		q3.H = shuffled
		if rep := Partition(q3); !rep.OK() || rep.Cost != base.Cost {
			t.Fatalf("pin shuffle: cost %.17g -> %.17g (%v)", base.Cost, rep.Cost, rep.Err())
		}

		// Power-of-two capacity rescale.
		scaled, err := ScaleCapacities(h, factor)
		if err != nil {
			t.Fatal(err)
		}
		q4 := p.Clone()
		q4.H = scaled
		if rep := Partition(q4); !rep.OK() || rep.Cost != factor*base.Cost {
			t.Fatalf("rescale by %g: want %.17g, got %.17g (%v)",
				factor, factor*base.Cost, rep.Cost, rep.Err())
		}

		// Lemma 1 must survive every transform too.
		for _, v := range []*hierarchy.Partition{p, q, q2, q3} {
			rep := Partition(v)
			Lemma1(rep, v)
			if !rep.OK() {
				t.Fatalf("Lemma 1 broke under a transform: %v", rep.Err())
			}
		}

		// Determinism: the same seed must reproduce the same result bit for bit.
		res2, err := htp.GFMCtx(context.Background(), h, spec, htp.GFMOptions{Seed: seed})
		if err != nil {
			t.Fatalf("second run failed where first succeeded: %v", err)
		}
		if res2.Cost != res.Cost {
			t.Fatalf("nondeterministic solve: %.17g then %.17g", res.Cost, res2.Cost)
		}
	})
}

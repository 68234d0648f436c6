package shortest

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hypergraph"
)

// raiseLengths returns a copy of lengths with some nets made longer, never
// shorter, so that a snapshot of lengths lower-bounds the copy. mode picks
// which: 0 none (the snapshot is exact, so offers tie with its bounds), 1 a
// random subset by random factors, 2 every net by one amount, 3 a random
// subset by 1 or 2 (integer lengths keep their ties).
func raiseLengths(rng *rand.Rand, lengths []float64, mode uint8) []float64 {
	out := slices.Clone(lengths)
	step := []float64{1e-9, 0.5, 7}[rng.Intn(3)]
	for e := range out {
		switch mode % 4 {
		case 1:
			if rng.Intn(3) == 0 {
				out[e] += out[e]*4*rng.Float64() + rng.Float64()
			}
		case 2:
			out[e] += step
		case 3:
			if rng.Intn(2) == 0 {
				out[e] += float64(1 + rng.Intn(2))
			}
		}
	}
	return out
}

// checkSnapshotMatchesReference grows every root of c with a HyperSPT that
// reads incidence by length and with the reference grower, twice: first
// under lengths raised over c.lengths with the snapshot taken of c.lengths,
// then, after refreshing the snapshot to those lengths (from its previous
// order), under lengths raised once more. Visits — node, distance bits, via
// net and parent — and settled counts must be identical. It returns the
// incidence entries the growths read under a finite ceiling, and those the
// same growths read without the snapshot.
func checkSnapshotMatchesReference(t *testing.T, c growCase, raise uint8) (walked, whole int) {
	t.Helper()
	type rec struct {
		node   hypergraph.NodeID
		dist   uint64
		via    hypergraph.NetID
		parent hypergraph.NodeID
	}
	record := func(out *[]rec) func(Visit) bool {
		return func(v Visit) bool {
			*out = append(*out, rec{v.Node, math.Float64bits(v.Dist), v.Via, v.Parent})
			return c.stopK == 0 || len(*out) < c.stopK
		}
	}
	rng := rand.New(rand.NewSource(int64(raise) + 1))
	ls := NewLengthSnapshot(c.h)
	s, ref, full := NewHyperSPT(c.h), newRefSPT(c.h), NewHyperSPT(c.h)
	s.UseSnapshot(ls)
	snapped := c.lengths
	var got, want []rec
	for step := 0; step < 2; step++ {
		lengths := raiseLengths(rng, snapped, raise>>uint(2*step))
		ls.Refresh(snapped)
		for _, root := range c.roots {
			got, want = got[:0], want[:0]
			ng := s.Grow(root, lengths, record(&got))
			nw := ref.grow(root, lengths, nil, record(&want))
			full.Grow(root, lengths, record(new([]rec)))
			if ng != nw || len(got) != len(want) {
				t.Fatalf("step %d root %d: settled %d (%d visits), reference %d (%d visits)", step, root, ng, len(got), nw, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d root %d visit %d: %+v, reference %+v", step, root, i, got[i], want[i])
				}
			}
		}
		snapped = lengths
	}
	return s.TakeScans(), full.TakeScans()
}

// TestGrowSnapshotMatchesReference checks Grow with a length snapshot
// against the reference grower over newSettleCase's shapes and
// non-negative length families (ties, uniform, near exp(60)-1, one length
// on every net, all zeros, log-uniform) and every raise mode, and that the
// snapshot is not vacuous: the growths read fewer incidence entries under
// a finite ceiling than the whole scan does. The frontier shapes (the
// second half) include a net over every node, whose ceiling is finite
// from the second settle on.
func TestGrowSnapshotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	var walked, whole int
	for trial := 0; trial < 144; trial++ {
		shape := uint8(trial) & 3
		if trial >= 72 {
			shape |= 4 | uint8(trial%3)<<3
		}
		c := newSettleCase(rng.Int63(), uint16(rng.Intn(400)), shape, uint8(trial/4), uint16(rng.Intn(3)*rng.Intn(400)))
		w, f := checkSnapshotMatchesReference(t, c, uint8(rng.Intn(16)))
		walked, whole = walked+w, whole+f
	}
	if walked == 0 || walked >= whole {
		t.Fatalf("snapshot walks read %d entries under a finite ceiling, whole scans %d", walked, whole)
	}
	t.Logf("snapshot walks read %d entries under a finite ceiling, whole scans %d", walked, whole)
}

func FuzzGrowSnapshotMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(30), uint8(0), uint8(0), uint16(0), uint8(1))
	f.Add(int64(2), uint16(398), uint8(2), uint8(1), uint16(0), uint8(5))
	f.Add(int64(3), uint16(200), uint8(1), uint8(2), uint16(17), uint8(6))
	f.Add(int64(4), uint16(350), uint8(3), uint8(3), uint16(0), uint8(7))
	f.Add(int64(5), uint16(120), uint8(4), uint8(4), uint16(40), uint8(9))
	f.Add(int64(6), uint16(300), uint8(4), uint8(5), uint16(0), uint8(13))
	f.Add(int64(7), uint16(250), uint8(4), uint8(1), uint16(0), uint8(0))
	f.Add(int64(8), uint16(180), uint8(4|1<<3|2), uint8(3), uint16(0), uint8(10))
	f.Add(int64(9), uint16(90), uint8(4|2<<3), uint8(0), uint16(33), uint8(15))
	f.Add(int64(10), uint16(320), uint8(4|1<<3), uint8(0), uint16(150), uint8(11))
	f.Add(int64(11), uint16(60), uint8(4), uint8(3), uint16(0), uint8(14))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint16, shape, lenMode uint8, stop uint16, raise uint8) {
		checkSnapshotMatchesReference(t, newSettleCase(seed, nodes, shape, lenMode, stop), raise)
	})
}

// TestGrowSnapshotAllocatesNothing checks that Grow reading a snapshot,
// once its workspaces are allocated, runs without allocating.
func TestGrowSnapshotAllocatesNothing(t *testing.T) {
	c := newSettleCase(7, 300, 4, 1, 0)
	ls := NewLengthSnapshot(c.h)
	ls.Refresh(c.lengths)
	s := NewHyperSPT(c.h)
	s.UseSnapshot(ls)
	visit := func(Visit) bool { return true }
	s.Grow(0, c.lengths, visit)
	root := hypergraph.NodeID(0)
	if allocs := testing.AllocsPerRun(20, func() {
		root = (root + 1) % hypergraph.NodeID(c.h.NumNodes())
		s.Grow(root, c.lengths, visit)
	}); allocs != 0 {
		t.Fatalf("warmed-up Grow with a snapshot allocates %v times per run", allocs)
	}
	if s.TakeScans() == 0 {
		t.Fatal("no growth read incidence under a finite ceiling")
	}
}

// TestRefreshSortsEveryNode refreshes a snapshot whose nodes have degrees
// from 1 to 400 under lengths that rise a little (the insertion sort's
// case), then under new random and reversed orders (where a high-degree
// node's insertion sort runs out of moves and the comparison sort takes
// over). After each refresh every node's range must hold each of its
// positions once, with the length of the net there, in non-decreasing
// order.
func TestRefreshSortsEveryNode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 40
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(n)
	for e := 0; e < 400; e++ {
		b.AddNet("", 1, 0, hypergraph.NodeID(1+e%(n-1)))
		if e%3 == 0 {
			b.AddNet("", 1, 1, 2, hypergraph.NodeID(3+e%(n-3)))
		}
	}
	h := b.MustBuild()
	lengths := make([]float64, h.NumNets())
	for e := range lengths {
		lengths[e] = float64(rng.Intn(50))
	}
	ls := NewLengthSnapshot(h)
	check := func(what string) {
		t.Helper()
		incOff, incident := h.IncidenceArena()
		for v := 0; v < n; v++ {
			lo, hi := incOff[v], incOff[v+1]
			seen := make([]bool, hi-lo)
			for k := lo; k < hi; k++ {
				p := ls.pos[k]
				if seen[p] {
					t.Fatalf("%s: node %d lists position %d twice", what, v, p)
				}
				seen[p] = true
				if ls.lens[k] != lengths[incident[lo+p]] {
					t.Fatalf("%s: node %d entry %d holds length %v, net %d is %v long", what, v, k-lo, ls.lens[k], incident[lo+p], lengths[incident[lo+p]])
				}
				if k > lo && ls.lens[k-1] > ls.lens[k] {
					t.Fatalf("%s: node %d lengths fall at entry %d", what, v, k-lo)
				}
			}
		}
	}
	ls.Refresh(lengths)
	check("first refresh")
	for e := range lengths {
		if rng.Intn(8) == 0 {
			lengths[e] += float64(rng.Intn(3))
		}
	}
	ls.Refresh(lengths)
	check("lengths risen a little")
	for e := range lengths {
		lengths[e] = rng.Float64()
	}
	ls.Refresh(lengths)
	check("new random lengths")
	for e := range lengths {
		lengths[e] = float64(len(lengths) - e)
	}
	ls.Refresh(lengths)
	check("reversed lengths")
	if deg := len(h.Incident(0)); deg != 400 {
		t.Fatalf("node 0 has degree %d, want 400", deg)
	}
	lens := []float64{3, 2, 1, 0}
	if insertionSort(lens, []int32{0, 1, 2, 3}, 5) {
		t.Fatal("reversing 4 entries fit in a budget of 5 moves")
	}
}

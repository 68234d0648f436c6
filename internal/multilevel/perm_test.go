package multilevel

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPermIntoMatchesPerm pins permInto to math/rand's Perm: the same
// permutation from the same draws, so the source is left in the same
// state. Coarsening's matching order, and with it every level stack,
// depends on both.
func TestPermIntoMatchesPerm(t *testing.T) {
	buf := make([]int, 1000)
	for _, n := range []int{0, 1, 2, 3, 17, 300, 1000} {
		for seed := int64(1); seed <= 5; seed++ {
			want, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := buf[:n]
			permInto(ref, got)
			if w := want.Perm(n); !slices.Equal(got, w) {
				t.Fatalf("n=%d seed=%d: permInto %v, Perm %v", n, seed, got, w)
			}
			if a, b := ref.Int63(), want.Int63(); a != b {
				t.Fatalf("n=%d seed=%d: next draw %d after permInto, %d after Perm", n, seed, a, b)
			}
		}
	}
}

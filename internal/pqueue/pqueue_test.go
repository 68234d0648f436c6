package pqueue

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyHeap(t *testing.T) {
	h := New(10)
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
	if h.Contains(3) {
		t.Fatal("empty heap Contains(3) = true")
	}
	if m := h.MaxKey(); !math.IsInf(m, -1) {
		t.Fatalf("empty heap MaxKey = %g, want -Inf", m)
	}
}

func TestPushPopOrdered(t *testing.T) {
	h := New(8)
	keys := []float64{5, 1, 9, 3, 7, 2, 8, 4}
	for i, k := range keys {
		h.Push(i, k)
	}
	want := append([]float64(nil), keys...)
	sort.Float64s(want)
	for _, w := range want {
		_, k := h.Pop()
		if k != w {
			t.Fatalf("Pop key = %g, want %g", k, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len after drain = %d", h.Len())
	}
}

func TestDecreaseKeyMovesToFront(t *testing.T) {
	h := New(4)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.DecreaseKey(2, 5)
	item, key := h.Pop()
	if item != 2 || key != 5 {
		t.Fatalf("Pop = (%d,%g), want (2,5)", item, key)
	}
}

func TestPushOrDecrease(t *testing.T) {
	h := New(4)
	if !h.PushOrDecrease(1, 7) {
		t.Fatal("first PushOrDecrease should insert")
	}
	if h.PushOrDecrease(1, 9) {
		t.Fatal("larger key should be a no-op")
	}
	if !h.PushOrDecrease(1, 3) {
		t.Fatal("smaller key should decrease")
	}
	if got := h.Key(1); got != 3 {
		t.Fatalf("Key(1) = %g, want 3", got)
	}
}

func TestRemoveArbitrary(t *testing.T) {
	h := New(8)
	for i := 0; i < 8; i++ {
		h.Push(i, float64(8-i))
	}
	h.Remove(7) // key 1, current minimum
	h.Remove(0) // key 8, current maximum
	item, key := h.Pop()
	if item != 6 || key != 2 {
		t.Fatalf("Pop = (%d,%g), want (6,2)", item, key)
	}
	if h.Contains(7) || h.Contains(0) {
		t.Fatal("removed items still present")
	}
}

func TestReset(t *testing.T) {
	h := New(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Reset()
	if h.Len() != 0 || h.Contains(0) || h.Contains(1) {
		t.Fatal("Reset did not clear heap")
	}
	h.Push(0, 5) // must not panic as duplicate
	if item, key := h.Pop(); item != 0 || key != 5 {
		t.Fatalf("Pop after Reset = (%d,%g)", item, key)
	}
}

func TestPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	h := New(2)
	expectPanic("Pop empty", func() { h.Pop() })
	expectPanic("Peek empty", func() { h.Peek() })
	expectPanic("Push out of range", func() { h.Push(2, 1) })
	expectPanic("Push negative", func() { h.Push(-1, 1) })
	h.Push(0, 5)
	expectPanic("duplicate Push", func() { h.Push(0, 1) })
	expectPanic("DecreaseKey absent", func() { h.DecreaseKey(1, 0) })
	expectPanic("DecreaseKey increase", func() { h.DecreaseKey(0, 9) })
	expectPanic("Remove absent", func() { h.Remove(1) })
	expectPanic("Key absent", func() { h.Key(1) })
}

// TestHeapProperty_Quick drives a random operation sequence and checks that
// Pop always yields the true minimum of the live set.
func TestHeapProperty_Quick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		h := New(n)
		live := map[int]float64{}
		for op := 0; op < 500; op++ {
			switch rng.Intn(4) {
			case 0: // push
				item := rng.Intn(n)
				if _, ok := live[item]; !ok {
					k := rng.Float64() * 100
					h.Push(item, k)
					live[item] = k
				}
			case 1: // decrease
				for item, k := range live {
					nk := k * rng.Float64()
					h.DecreaseKey(item, nk)
					live[item] = nk
					break
				}
			case 2: // pop
				if len(live) > 0 {
					item, key := h.Pop()
					want := key
					for _, k := range live {
						if k < want {
							want = k
						}
					}
					if key != want || live[item] != key {
						return false
					}
					delete(live, item)
				}
			case 3: // remove arbitrary
				for item := range live {
					h.Remove(item)
					delete(live, item)
					break
				}
			}
			if h.Len() != len(live) {
				return false
			}
			wantMax := math.Inf(-1)
			for _, k := range live {
				wantMax = math.Max(wantMax, k)
			}
			if h.MaxKey() != wantMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	const n = 1024
	keys := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := New(n)
		for j := 0; j < n; j++ {
			h.Push(j, keys[j])
		}
		for j := 0; j < n; j++ {
			h.Pop()
		}
	}
}

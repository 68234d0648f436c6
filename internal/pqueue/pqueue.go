// Package pqueue provides an indexed (addressable) binary min-heap keyed by
// float64 priorities. Items are dense non-negative integer IDs, which makes
// the heap a natural fit for Dijkstra and Prim over graphs whose vertices are
// numbered 0..n-1: DecreaseKey is O(log n) with O(1) lookup of an item's
// position.
package pqueue

import "math"

// entry is one heap slot. Keys live inline with their items so a sift
// comparison touches a single contiguous array instead of chasing
// keys[heap[i]] through a second one — the heap is the hot path of every
// shortest-path-tree growth in Algorithm 2, and the extra indirection
// dominated its profile.
type entry struct {
	key  float64
	item int32
}

// IndexedMinHeap is a binary min-heap over integer items with float64 keys.
// Every item must be in [0, capacity). The zero value is not usable; call New.
//
// Sift operations move a hole instead of swapping pairwise, halving the
// writes; the element ordering they produce is identical to the classic
// swap formulation (same comparisons, same tie preference), so heaps built
// by either implementation pop in the same order.
type IndexedMinHeap struct {
	entries []entry // heap-ordered slots
	pos     []int32 // pos[item] = heap position of item, or -1 if absent
}

// New returns an empty heap able to hold items 0..capacity-1.
func New(capacity int) *IndexedMinHeap {
	h := &IndexedMinHeap{
		entries: make([]entry, 0, capacity),
		pos:     make([]int32, capacity),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of items currently in the heap.
func (h *IndexedMinHeap) Len() int { return len(h.entries) }

// Contains reports whether item is currently in the heap.
func (h *IndexedMinHeap) Contains(item int) bool {
	return item >= 0 && item < len(h.pos) && h.pos[item] >= 0
}

// Key returns the current key of item. It panics if the item is not present.
func (h *IndexedMinHeap) Key(item int) float64 {
	if !h.Contains(item) {
		panic("pqueue: Key of absent item")
	}
	return h.entries[h.pos[item]].key
}

// Push inserts item with the given key. It panics if the item is already
// present or out of range.
func (h *IndexedMinHeap) Push(item int, key float64) {
	if item < 0 || item >= len(h.pos) {
		panic("pqueue: item out of range")
	}
	if h.pos[item] >= 0 {
		panic("pqueue: duplicate Push")
	}
	h.entries = append(h.entries, entry{key, int32(item)})
	h.pos[item] = int32(len(h.entries) - 1)
	h.siftUp(len(h.entries) - 1)
}

// Pop removes and returns the item with the minimum key and that key.
// It panics on an empty heap. Ties are broken arbitrarily.
func (h *IndexedMinHeap) Pop() (item int, key float64) {
	n := len(h.entries)
	if n == 0 {
		panic("pqueue: Pop of empty heap")
	}
	top := h.entries[0]
	h.pos[top.item] = -1
	last := h.entries[n-1]
	h.entries = h.entries[:n-1]
	if n > 1 {
		h.entries[0] = last
		h.pos[last.item] = 0
		h.siftDown(0)
	}
	return int(top.item), top.key
}

// Peek returns the minimum item and key without removing it.
func (h *IndexedMinHeap) Peek() (item int, key float64) {
	if len(h.entries) == 0 {
		panic("pqueue: Peek of empty heap")
	}
	return int(h.entries[0].item), h.entries[0].key
}

// MaxKey returns the largest key in the heap, or -Inf when it is empty. A
// min-heap keeps its maximum on a leaf, so the scan reads the last half of
// the slots only: O(Len).
func (h *IndexedMinHeap) MaxKey() float64 {
	m := math.Inf(-1)
	for _, e := range h.entries[len(h.entries)/2:] {
		if e.key > m {
			m = e.key
		}
	}
	return m
}

// DecreaseKey lowers the key of an existing item. It panics if the item is
// absent or the new key is greater than the current one.
func (h *IndexedMinHeap) DecreaseKey(item int, key float64) {
	if !h.Contains(item) {
		panic("pqueue: DecreaseKey of absent item")
	}
	i := int(h.pos[item])
	if key > h.entries[i].key {
		panic("pqueue: DecreaseKey would increase key")
	}
	h.entries[i].key = key
	h.siftUp(i)
}

// PushOrDecrease inserts the item if absent, lowers its key if the new key is
// smaller, and otherwise does nothing. It reports whether the heap changed.
// This is the common relaxation step of Dijkstra and Prim.
func (h *IndexedMinHeap) PushOrDecrease(item int, key float64) bool {
	if !h.Contains(item) {
		h.Push(item, key)
		return true
	}
	if key < h.entries[h.pos[item]].key {
		h.DecreaseKey(item, key)
		return true
	}
	return false
}

// Remove deletes an arbitrary item from the heap. It panics if absent.
func (h *IndexedMinHeap) Remove(item int) {
	if !h.Contains(item) {
		panic("pqueue: Remove of absent item")
	}
	i := int(h.pos[item])
	n := len(h.entries)
	h.pos[item] = -1
	last := h.entries[n-1]
	h.entries = h.entries[:n-1]
	if i < n-1 {
		h.entries[i] = last
		h.pos[last.item] = int32(i)
		h.siftDown(i)
		h.siftUp(i)
	}
}

// Reset empties the heap, keeping its capacity.
func (h *IndexedMinHeap) Reset() {
	for _, e := range h.entries {
		h.pos[e.item] = -1
	}
	h.entries = h.entries[:0]
}

// siftUp restores heap order by floating entries[i] toward the root: the
// moving entry is held out while smaller-ancestor slots shift down into the
// hole, then placed once.
func (h *IndexedMinHeap) siftUp(i int) {
	es := h.entries
	moving := es[i]
	for i > 0 {
		parent := (i - 1) / 2
		if moving.key >= es[parent].key {
			break
		}
		es[i] = es[parent]
		h.pos[es[i].item] = int32(i)
		i = parent
	}
	es[i] = moving
	h.pos[moving.item] = int32(i)
}

// siftDown restores heap order by sinking entries[i]: the smaller child
// (left-preferred on ties, matching the classic swap formulation) shifts up
// into the hole until neither child is smaller than the moving entry.
func (h *IndexedMinHeap) siftDown(i int) {
	es := h.entries
	n := len(es)
	moving := es[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && es[r].key < es[c].key {
			c = r
		}
		if es[c].key >= moving.key {
			break
		}
		es[i] = es[c]
		h.pos[es[i].item] = int32(i)
		i = c
	}
	es[i] = moving
	h.pos[moving.item] = int32(i)
}

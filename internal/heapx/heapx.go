// Package heapx is a typed slice binary min-heap shared by the hot paths
// that outgrew container/heap: no interface{} boxing (one allocation per
// push) and no indirect dispatch — elements are Item[V] pairs ordered by a
// concrete int64 priority field, so the comparison compiles to a direct
// integer compare in every instantiation. Callers own the backing slice,
// so it can be reused across searches (`h = h[:0]`).
//
// The order in which equal priorities pop is a contract, not an accident:
// A* frontiers, the coarse pass and the MCMF solve all break ties through
// it, so every golden report depends on it. Push and Pop sift a hole
// instead of swapping, and every intermediate array state, and with it
// the tie order, is the textbook swap heap's (the test keeps that heap as
// a reference). Push makes exactly the swap heap's comparisons. Pop is
// bottom-up: it walks the hole down the smaller-child path to a leaf, one
// comparison per level with the left child winning ties as in the swap
// heap, then moves the last element back up past every path element not
// smaller than it. That lands it exactly where the swap heap's sift-down
// stops, with about half the data-dependent branches: the last element
// usually belongs near the bottom, so the way back up is short.
package heapx

// Item is one heap element: an int64 priority and a payload. Min-heap:
// the smallest Pri pops first; equal priorities pop in the order the swap
// heap gives for the same push/pop sequence (see the package doc).
type Item[V any] struct {
	Pri   int64
	Value V
}

// Push adds it to the heap and returns the updated slice.
func Push[V any](h []Item[V], it Item[V]) []Item[V] {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Pri <= it.Pri {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
	return h
}

// Pop removes and returns the minimum element. It panics on an empty heap
// (same contract as container/heap).
func Pop[V any](h []Item[V]) ([]Item[V], Item[V]) {
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n == 0 {
		return h, top
	}
	// Down: move the smaller child up into the hole until the hole is a
	// leaf (r is the hole's right child; an only left child comes last).
	i := 0
	for r := 2; r < n; r = 2*i + 2 {
		c := r - 1
		if h[r].Pri < h[c].Pri {
			c = r
		}
		h[i] = h[c]
		i = c
	}
	if l := 2*i + 1; l < n {
		h[i] = h[l]
		i = l
	}
	// Up: the swap heap stops above the first path element that is not
	// smaller than last, so move those back down.
	for i > 0 {
		p := (i - 1) / 2
		if h[p].Pri < last.Pri {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = last
	return h, top
}

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
// instead of swapping, but make exactly the comparisons of the textbook
// swap heap (the test keeps that heap as a reference), so every
// intermediate array state, and with it the tie order, is the swap
// heap's.
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
	i := 0
	for {
		small, pri := i, last.Pri
		if l := 2*i + 1; l < n && h[l].Pri < pri {
			small, pri = l, h[l].Pri
		}
		if r := 2*i + 2; r < n && h[r].Pri < pri {
			small = r
		}
		if small == i {
			break
		}
		h[i] = h[small]
		i = small
	}
	h[i] = last
	return h, top
}

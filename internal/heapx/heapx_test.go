package heapx

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestHeapSortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		in := make([]int, n)
		var h []Item[int]
		for i := range in {
			in[i] = rng.Intn(50) // duplicates included
			h = Push(h, Item[int]{Pri: int64(in[i]), Value: i})
		}
		sort.Ints(in)
		for i := 0; i < n; i++ {
			var got Item[int]
			h, got = Pop(h)
			if got.Pri != int64(in[i]) {
				t.Fatalf("trial %d: pop %d = %d, want %d", trial, i, got.Pri, in[i])
			}
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: heap not drained: %d left", trial, len(h))
		}
	}
}

func TestHeapSingleElement(t *testing.T) {
	h := Push(nil, Item[string]{Pri: 7, Value: "x"})
	h, got := Pop(h)
	if got.Value != "x" || got.Pri != 7 || len(h) != 0 {
		t.Fatalf("got %+v, %d left", got, len(h))
	}
}

func TestHeapReusesBacking(t *testing.T) {
	h := make([]Item[int], 0, 64)
	h = Push(h, Item[int]{Pri: 3})
	h = Push(h, Item[int]{Pri: 1})
	h, _ = Pop(h)
	h, _ = Pop(h)
	if cap(h) != 64 {
		t.Fatalf("backing array reallocated: cap %d", cap(h))
	}
}

// pushSwap and popSwap are the textbook swap heap Push and Pop replaced.
// They are kept as the reference the tie order is pinned against: the
// goldens were recorded with it.
func pushSwap[V any](h []Item[V], it Item[V]) []Item[V] {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Pri <= h[i].Pri {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func popSwap[V any](h []Item[V]) ([]Item[V], Item[V]) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].Pri < h[small].Pri {
			small = l
		}
		if r < n && h[r].Pri < h[small].Pri {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, top
}

// checkMatchesSwapHeap drives Push/Pop and the swap reference through the
// same random interleaving of pushes and pops, with few distinct
// priorities so ties are the rule. Every pop must return the same (Pri,
// Value) pair and leave the same array behind.
func checkMatchesSwapHeap[V comparable](t *testing.T, value func(int) V) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var got, want []Item[V]
		distinct := 1 + rng.Intn(8)
		for op := 0; op < 500; op++ {
			if len(want) == 0 || rng.Intn(3) > 0 {
				it := Item[V]{Pri: int64(rng.Intn(distinct)), Value: value(op)}
				got, want = Push(got, it), pushSwap(want, it)
			} else {
				var g, w Item[V]
				got, g = Pop(got)
				want, w = popSwap(want)
				if g != w {
					t.Fatalf("trial %d op %d: pop %+v, swap heap pops %+v", trial, op, g, w)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d op %d: heap %v, swap heap %v", trial, op, got, want)
			}
		}
		for len(want) > 0 {
			var g, w Item[V]
			got, g = Pop(got)
			want, w = popSwap(want)
			if g != w {
				t.Fatalf("trial %d drain: pop %+v, swap heap pops %+v", trial, g, w)
			}
		}
	}
}

func TestHeapMatchesSwapHeapTieOrder(t *testing.T) {
	t.Run("int32", func(t *testing.T) { checkMatchesSwapHeap(t, func(i int) int32 { return int32(i) }) })
	t.Run("int", func(t *testing.T) { checkMatchesSwapHeap(t, func(i int) int { return i }) })
}

// BenchmarkPushPop keeps a frontier of about 1,000 items and pushes and
// pops through it, the A* search's access pattern.
func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pris := make([]int64, 4096)
	for i := range pris {
		pris[i] = int64(rng.Intn(1 << 16))
	}
	h := make([]Item[int32], 0, 2048)
	for i := 0; i < 1000; i++ {
		h = Push(h, Item[int32]{Pri: pris[i], Value: int32(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var it Item[int32]
		h, it = Pop(h)
		h = Push(h, Item[int32]{Pri: it.Pri + pris[i&4095], Value: it.Value})
	}
}

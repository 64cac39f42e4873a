package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachRunsEveryIndexOnce checks that every index runs exactly once
// and that each call's worker index stays within [0, min(workers, n)).
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {7, 1}, {7, 0}, {3, 8}, {100, 4},
	} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", tc.n, tc.workers), func(t *testing.T) {
			runs := make([]atomic.Int32, tc.n)
			var badW atomic.Int32
			badW.Store(-1)
			limit := max(1, min(tc.workers, tc.n))
			ForEach(tc.n, tc.workers, func(w, i int) {
				if w < 0 || w >= limit {
					badW.Store(int32(w))
				}
				runs[i].Add(1)
			})
			if w := badW.Load(); w >= 0 {
				t.Fatalf("worker index %d outside [0, %d)", w, limit)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("index %d ran %d times, want 1", i, c)
				}
			}
		})
	}
}

// TestForEachWorkerOwnsItsIndex checks that no two calls with the same
// worker index overlap, so per-worker scratch needs no locking.
func TestForEachWorkerOwnsItsIndex(t *testing.T) {
	const workers = 4
	var busy [workers]atomic.Int32
	var overlap atomic.Bool
	ForEach(200, workers, func(w, i int) {
		if busy[w].Add(1) != 1 {
			overlap.Store(true)
		}
		busy[w].Add(-1)
	})
	if overlap.Load() {
		t.Fatal("two calls ran concurrently with the same worker index")
	}
}

// TestForEachPanicAfterDrain checks that a panic on a worker goroutine is
// raised again on the caller's goroutine, and only after every other
// worker has returned from its current call.
func TestForEachPanicAfterDrain(t *testing.T) {
	var inFlight atomic.Int32
	release := make(chan struct{})
	defer func() {
		p := recover()
		if p != "boom" {
			t.Fatalf("recovered %v, want the worker's panic", p)
		}
		if n := inFlight.Load(); n != 0 {
			t.Fatalf("panic raised with %d calls still running", n)
		}
	}()
	ForEach(8, 4, func(w, i int) {
		if i == 0 {
			// Panic only once the other three workers are inside a call.
			for inFlight.Load() < 3 {
				runtime.Gosched()
			}
			close(release)
			panic("boom")
		}
		inFlight.Add(1)
		defer inFlight.Add(-1)
		<-release
	})
	t.Fatal("ForEach returned normally after a worker panicked")
}

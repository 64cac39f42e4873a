// Package par is the repository's one worker pool: the flow's split-layer
// attacks, the suite's jobs and the router's waves all run on ForEach.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(w, 0), …, fn(w, n-1) on at most workers goroutines and
// returns when every call has. w is the index of the goroutine making the
// call, in [0, min(workers, n)), so a caller can give each goroutine its
// own scratch. With one worker (workers below 1 count as one) every call
// runs on the caller's goroutine. Indices are handed out from one atomic
// counter, so calls start in global index order — callers put the jobs
// that unblock others (the suite's baselines) first. Callers write each
// result into a preallocated slot, which keeps results independent of
// scheduling. A panic in fn stops the handing out of indices and is
// raised again on the caller's goroutine once every worker has returned,
// so a recover around ForEach (the result cache's) contains it.
func ForEach(n, workers int, fn func(w, i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicked = p })
					next.Store(int64(n))
				}
			}()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

package cache

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"splitmfg/internal/store"
)

func TestResultCacheHitAndStats(t *testing.T) {
	c := New(0, nil)
	calls := 0
	compute := func() (any, error) { calls++; return 42, nil }
	v, hit, err := c.Do(context.Background(), "k", nil, compute)
	if err != nil || hit || v != 42 {
		t.Fatalf("first do = (%v, %v, %v), want (42, false, nil)", v, hit, err)
	}
	v, hit, err = c.Do(context.Background(), "k", nil, compute)
	if err != nil || !hit || v != 42 {
		t.Fatalf("second do = (%v, %v, %v), want (42, true, nil)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestResultCacheFailureEvicted(t *testing.T) {
	c := New(0, nil)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", nil, func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed computation must not poison the key.
	v, hit, err := c.Do(context.Background(), "k", nil, func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry = (%v, %v, %v), want (ok, false, nil)", v, hit, err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses", st)
	}
}

func TestResultCacheSingleflight(t *testing.T) {
	c := New(0, nil)
	release := make(chan struct{})
	computing := make(chan struct{})
	type result struct {
		v   any
		hit bool
		err error
	}
	results := make(chan result, 1)
	go func() {
		v, hit, err := c.Do(context.Background(), "k", nil, func() (any, error) {
			close(computing)
			<-release
			return "shared", nil
		})
		results <- result{v, hit, err}
	}()
	<-computing
	waiter := make(chan result, 1)
	go func() {
		v, hit, err := c.Do(context.Background(), "k", nil, func() (any, error) {
			t.Error("waiter should not compute")
			return nil, nil
		})
		waiter <- result{v, hit, err}
	}()
	// A waiter whose context dies gives up without canceling the computer.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
	}
	close(release)
	r := <-results
	if r.err != nil || r.hit || r.v != "shared" {
		t.Fatalf("computer got %+v", r)
	}
	r = <-waiter
	if r.err != nil || !r.hit || r.v != "shared" {
		t.Fatalf("waiter got %+v, want a hit on the shared value", r)
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := New(2, nil)
	put := func(k string) (any, bool) {
		t.Helper()
		v, hit, err := c.Do(context.Background(), k, nil, func() (any, error) { return k, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	put("a")
	put("b")
	put("c") // over the cap: "a" (least recently used) falls out
	if st := c.Stats(); st.Evictions != 1 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 1 eviction / 3 misses", st)
	}
	if _, hit := put("b"); !hit {
		t.Fatal("recently used entry was evicted")
	}
	if _, hit := put("a"); hit {
		t.Fatal("evicted entry still served")
	}
	// Re-adding "a" displaced the now-least-recent "c".
	if st := c.Stats(); st.Evictions != 2 || st.Misses != 4 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 evictions / 4 misses / 1 hit", st)
	}
}

func TestResultCacheInFlightNeverEvicted(t *testing.T) {
	c := New(1, nil)
	release := make(chan struct{})
	computing := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.Do(context.Background(), "slow", nil, func() (any, error) {
			close(computing)
			<-release
			return "slow-value", nil
		})
		if err != nil || v != "slow-value" {
			t.Errorf("slow compute = (%v, %v)", v, err)
		}
	}()
	<-computing
	// Churn the cache past its cap while "slow" is still in flight: only
	// completed entries may be evicted.
	for _, k := range []string{"x", "y", "z"} {
		if _, _, err := c.Do(context.Background(), k, nil, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	<-done
	v, hit, err := c.Do(context.Background(), "slow", nil, func() (any, error) {
		t.Error("in-flight entry was evicted and recomputed")
		return nil, nil
	})
	if err != nil || !hit || v != "slow-value" {
		t.Fatalf("post-completion lookup = (%v, %v, %v), want the in-flight survivor", v, hit, err)
	}
}

func TestResultCacheDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	openStore := func() *store.Store {
		t.Helper()
		st, err := store.Open(dir, store.Options{KeySchema: 1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	decode := func(raw []byte) (any, error) {
		var s string
		err := json.Unmarshal(raw, &s)
		return s, err
	}
	c1 := New(4, openStore())
	if _, _, err := c1.Do(context.Background(), "k", decode, func() (any, error) { return "v", nil }); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory — the process restart — must
	// serve the key from disk without computing.
	c2 := New(4, openStore())
	v, hit, err := c2.Do(context.Background(), "k", decode, func() (any, error) {
		t.Error("disk-backed key recomputed")
		return nil, nil
	})
	if err != nil || !hit || v != "v" {
		t.Fatalf("restarted lookup = (%v, %v, %v), want a disk hit", v, hit, err)
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit / 0 misses", st)
	}
}

// TestUnboundedCapCountsLikeTheSuite replays the suite's request pattern
// concurrently against an uncapped cache: B baseline jobs, then B×C cell
// jobs that each re-request their benchmark's baseline before computing
// their own key. Nothing is evicted, and the counters come out as the
// suite report pins them — misses = distinct keys, hits = repeats.
func TestUnboundedCapCountsLikeTheSuite(t *testing.T) {
	c := New(0, nil)
	const B, C = 3, 40
	get := func(key string) {
		if _, _, err := c.Do(context.Background(), key, nil, func() (any, error) { return key, nil }); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	for b := 0; b < B; b++ {
		base := "baseline|" + string(rune('a'+b))
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(base)
		}()
		for k := 0; k < C; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				get(base)
				get(base + "|cell|" + string(rune('A'+k)))
			}()
		}
	}
	wg.Wait()
	want := Stats{Hits: B * C, Misses: B + B*C}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestPanicFailsOnlyThatComputation: a compute that panics surfaces as an
// error naming the key, a waiter blocked on the same key wakes instead of
// hanging, and the key is not poisoned — the next Do recomputes.
func TestPanicFailsOnlyThatComputation(t *testing.T) {
	c := New(0, nil)
	release := make(chan struct{})
	computing := make(chan struct{})
	computer := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", nil, func() (any, error) {
			close(computing)
			<-release
			panic("usage overflow")
		})
		computer <- err
	}()
	<-computing
	waiter := make(chan error, 1)
	go func() {
		// Woken by the failure, the waiter retries and computes itself;
		// its compute panics too and must fail the same way.
		_, _, err := c.Do(context.Background(), "k", nil, func() (any, error) { panic("again") })
		waiter <- err
	}()
	close(release)
	for _, w := range []struct {
		name string
		ch   chan error
	}{{"computer", computer}, {"waiter", waiter}} {
		name, ch := w.name, w.ch
		select {
		case err := <-ch:
			if err == nil || !strings.Contains(err.Error(), `"k"`) || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("%s error = %v, want a panic error naming the key", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s hung after a panicking compute", name)
		}
	}
	v, hit, err := c.Do(context.Background(), "k", nil, func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("post-panic do = (%v, %v, %v), want a fresh (ok, false, nil)", v, hit, err)
	}
	if st := c.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 3 misses / 0 hits", st)
	}
}

// Package cache is the content-addressed singleflight result cache shared
// by the suite scheduler (internal/flow) and the evaluation server
// (internal/server). Keys encode every input that determines a value, so
// a lookup can never conflate two computations. Identical requests are
// deduplicated: the first computes, later ones block until the value is
// ready and count a hit. Failed computations — including a compute that
// panics — are evicted before their waiters wake, so a canceled or crashed
// computation never poisons the key: a waiter that observes the failure
// retries the lookup and computes itself.
//
// Completed entries may live in an LRU capped at New's maxEntries
// (in-flight entries are never evicted); a cap of 0 keeps every entry,
// which makes the hit/miss counters a deterministic function of the
// request sequence. An optional internal/store disk tier serves entries
// the memory tier does not hold and checkpoints every computed value.
package cache

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"splitmfg/internal/store"
)

// Stats counts cache outcomes. A hit is a request served from another
// request's computation (completed or still in flight), a disk hit one
// served from the disk store, a miss a request that computed the value
// itself. Evictions counts completed entries dropped from memory by the
// LRU cap (the disk tier, when configured, still holds them).
type Stats struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	DiskHits  int `json:"disk_hits"`
	Evictions int `json:"evictions"`
}

// entry is one in-flight or completed computation; ready is closed when
// val/err are final. elem is the entry's slot in the LRU list — nil while
// the computation is in flight, so in-flight entries are never eviction
// candidates.
type entry struct {
	ready chan struct{}
	val   any
	err   error
	elem  *list.Element
}

// Cache is safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	entries    map[string]*entry
	order      *list.List // completed entries, most recently used first; values are keys
	maxEntries int        // 0 = unbounded
	stats      Stats
	disk       *store.Store // nil = memory-only
}

// New returns an empty cache holding at most maxEntries completed values
// in memory (0 = unbounded), backed by disk when it is non-nil.
func New(maxEntries int, disk *store.Store) *Cache {
	return &Cache{
		entries:    map[string]*entry{},
		order:      list.New(),
		maxEntries: maxEntries,
		disk:       disk,
	}
}

// complete marks e done under mu: it joins the LRU as most recent and
// the cap is enforced by dropping the least recently used completed
// entries.
func (c *Cache) complete(key string, e *entry) {
	e.elem = c.order.PushFront(key)
	for c.maxEntries > 0 && c.order.Len() > c.maxEntries {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(string))
		c.stats.Evictions++
	}
}

// Do returns the cached (or freshly computed) value for key. hit reports
// whether the value came from another request's computation or from the
// disk store. decode rebuilds the typed value from the disk tier's raw
// JSON (nil skips the disk tier for this call). The context bounds only
// the wait on an in-flight sibling — it does not cancel the sibling's
// computation, which other waiters may still want. A panic in compute is
// returned as an error naming the key.
func (c *Cache) Do(ctx context.Context, key string, decode func([]byte) (any, error), compute func() (any, error)) (val any, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if e.elem != nil {
				c.order.MoveToFront(e.elem)
			}
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, false, ctx.Err()
			case <-e.ready:
			}
			if e.err == nil {
				c.mu.Lock()
				c.stats.Hits++
				c.mu.Unlock()
				return e.val, true, nil
			}
			// The computing request failed and evicted the entry; try to
			// become the computer ourselves.
			continue
		}
		e := &entry{ready: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()
		if decode != nil {
			if raw, ok := c.disk.Get(key); ok {
				if v, derr := decode(raw); derr == nil {
					c.mu.Lock()
					c.stats.DiskHits++
					c.complete(key, e)
					c.mu.Unlock()
					e.val = v
					close(e.ready)
					return v, true, nil
				}
				// Undecodable value: treat as absent and recompute (the
				// rewrite below replaces it).
			}
		}
		c.mu.Lock()
		c.stats.Misses++
		c.mu.Unlock()
		e.val, e.err = run(key, compute)
		c.mu.Lock()
		if e.err != nil {
			delete(c.entries, key)
		} else {
			c.complete(key, e)
		}
		c.mu.Unlock()
		if e.err == nil {
			// Best-effort checkpoint; a failed write degrades to uncached.
			c.disk.Put(key, e.val)
		}
		close(e.ready)
		return e.val, false, e.err
	}
}

// run calls compute, turning a panic into an error so the entry is
// evicted and its waiters wake instead of blocking forever.
func run(key string, compute func() (any, error)) (val any, err error) {
	defer func() {
		if p := recover(); p != nil {
			val, err = nil, fmt.Errorf("cache: computing %q panicked: %v", key, p)
		}
	}()
	return compute()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

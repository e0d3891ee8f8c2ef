// Package flight is the repo's one single-flight cache. The engine's build
// and result caches and adore-serve's response-cache shards are all
// instances of Cache: each fills a key at most once no matter how many
// goroutines ask for it concurrently, and optionally bounds its completed
// entries with LRU eviction.
package flight

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Cache is a single-flight cache of V values keyed by string, optionally
// bounded by an LRU over completed entries.
//
// The fill contract (see Do):
//   - a waiter blocks on the in-flight fill or its own ctx, whichever
//     fires first, so it never strands on a stuck fill;
//   - a failed fill is handed to the waiters that joined it but removed,
//     so the next call fills again instead of replaying a stale error;
//   - a panicking fill releases its waiters with an error and removes its
//     entry before the panic continues;
//   - an entry still being filled is never evicted: its waiters hold it,
//     and evicting it would let a concurrent identical call fill twice.
type Cache[V any] struct {
	mu       sync.Mutex
	entries  map[string]*entry[V]
	lru      *list.List // of *entry[V], completed only; front = most recently used
	capacity int        // 0 = unbounded

	hits, misses, evictions    atomic.Uint64
	mHits, mMisses, mEvictions *metrics.Counter // optional live mirrors
}

type entry[V any] struct {
	key   string
	ready chan struct{} // closed once val/err are set
	val   V
	err   error
	elem  *list.Element // nil while in flight
}

// New returns an empty cache holding at most capacity completed entries,
// evicting the least recently used beyond it. A capacity <= 0 is
// unbounded.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{entries: map[string]*entry[V]{}, lru: list.New(), capacity: max(capacity, 0)}
}

// SetMetrics mirrors the hit, miss and eviction counters onto live metric
// counters (nil instruments are valid and free). Call before use.
func (c *Cache[V]) SetMetrics(hits, misses, evictions *metrics.Counter) {
	c.mHits, c.mMisses, c.mEvictions = hits, misses, evictions
}

// Do returns the value cached under key, calling fill(ctx) to produce it
// on a miss. Concurrent calls with the same key run fill once and share
// its value and error; hit reports whether THIS call was served without
// running fill (a join of an in-flight fill counts as a hit).
func (c *Cache[V]) Do(ctx context.Context, key string, fill func(context.Context) (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		c.hits.Add(1)
		c.mHits.Inc()
		select {
		case <-e.ready:
			return e.val, true, e.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	e := &entry[V]{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)
	c.mMisses.Inc()

	finished := false
	defer func() {
		if !finished {
			e.err = fmt.Errorf("flight: fill for %s panicked", key)
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
			close(e.ready)
		}
	}()
	e.val, e.err = fill(ctx)
	finished = true
	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.elem = c.lru.PushFront(e)
		for c.capacity > 0 && c.lru.Len() > c.capacity {
			victim := c.lru.Remove(c.lru.Back()).(*entry[V])
			delete(c.entries, victim.key)
			c.evictions.Add(1)
			c.mEvictions.Inc()
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.val, false, e.err
}

// Stats reports cache effectiveness: hits are calls served by a completed
// or in-flight fill, misses are fills run, evictions are completed
// entries dropped by the capacity bound.
func (c *Cache[V]) Stats() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// Len reports the number of entries, completed and in flight.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

package serve

import (
	"context"
	"hash/fnv"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/metrics"
)

// The response cache: the serving-path half of the ROADMAP's "sharded run
// fleet with a content-addressed result cache". Keys are request
// fingerprints (sha256 over the normalized request document — see
// request.go), values are fully marshaled response bodies, so a cache hit
// is served byte-identical to the cold run that filled it, with zero
// re-marshaling. The fingerprint prefix picks the shard, and each shard is
// an independently locked bounded flight.Cache (a long-lived process must
// not grow its cache with its query universe) whose entries are
// single-flight — concurrent identical requests share one simulation.

// CacheConfig sizes the sharded response cache.
type CacheConfig struct {
	// Shards is the shard count, rounded up to a power of two (so the
	// fingerprint prefix maps onto shards with a mask). Default 8.
	Shards int
	// ShardCap bounds each shard's completed entries (LRU eviction past
	// it). Default 128.
	ShardCap int
}

// ShardedCache is a sharded, bounded-LRU, single-flight cache of response
// bodies keyed by request fingerprint: one flight.Cache per shard, plus
// the per-shard load signals the shard manager reads.
type ShardedCache struct {
	shards []*flight.Cache[[]byte]
	load   []shardLoad
	mask   uint64
}

// shardLoad counts every request to a shard (hit or miss) once, with its
// full service latency.
type shardLoad struct {
	requests  atomic.Uint64
	latencyNS atomic.Uint64
}

// NewShardedCache builds the cache and mirrors its aggregate counters on
// reg (nil runs unmetered for free).
func NewShardedCache(cfg CacheConfig, reg *metrics.Registry) *ShardedCache {
	want := cfg.Shards
	if want <= 0 {
		want = 8
	}
	n := 1
	for n < want {
		n <<= 1
	}
	capacity := cfg.ShardCap
	if capacity <= 0 {
		capacity = 128
	}
	hits := reg.Counter("adore_serve_cache_hits_total", "requests served from the sharded response cache (incl. in-flight joins)")
	misses := reg.Counter("adore_serve_cache_misses_total", "requests that ran a simulation")
	evictions := reg.Counter("adore_serve_cache_evictions_total", "completed responses dropped by shard LRU bounds")
	c := &ShardedCache{shards: make([]*flight.Cache[[]byte], n), load: make([]shardLoad, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = flight.New[[]byte](capacity)
		c.shards[i].SetMetrics(hits, misses, evictions)
	}
	return c
}

// Shards reports the shard count.
func (c *ShardedCache) Shards() int { return len(c.shards) }

// ShardFor maps a fingerprint to its shard index by prefix: the leading
// hex digits select the shard, so the keyspace spreads uniformly (the
// fingerprint is a cryptographic hash). Non-hex keys fall back to FNV.
func (c *ShardedCache) ShardFor(key string) int {
	var v uint64
	n := 0
	for ; n < len(key) && n < 8; n++ {
		d := hexVal(key[n])
		if d < 0 {
			break
		}
		v = v<<4 | uint64(d)
	}
	if n == 0 {
		h := fnv.New64a()
		h.Write([]byte(key))
		v = h.Sum64()
	}
	return int(v & c.mask)
}

func hexVal(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'f':
		return int(b-'a') + 10
	case b >= 'A' && b <= 'F':
		return int(b-'A') + 10
	}
	return -1
}

// Do returns the body cached under key from its shard, filling it with
// fill on a miss (flight.Cache.Do: single-flight, ctx-aware waiters,
// failed and panicking fills not cached). hit reports whether THIS call
// was served without running fill.
func (c *ShardedCache) Do(ctx context.Context, key string, fill func(context.Context) ([]byte, error)) (body []byte, hit bool, err error) {
	i := c.ShardFor(key)
	start := time.Now()
	defer func() {
		c.load[i].requests.Add(1)
		c.load[i].latencyNS.Add(uint64(time.Since(start)))
	}()
	return c.shards[i].Do(ctx, key, fill)
}

// Stats reports the aggregate cache effectiveness across shards.
func (c *ShardedCache) Stats() (hits, misses, evictions uint64) {
	for _, s := range c.shards {
		h, m, e := s.Stats()
		hits, misses, evictions = hits+h, misses+m, evictions+e
	}
	return hits, misses, evictions
}

// ShardLoad reports shard i's cumulative request count and service
// latency — the shard manager's input signals.
func (c *ShardedCache) ShardLoad(i int) (requests, latencyNS uint64) {
	return c.load[i].requests.Load(), c.load[i].latencyNS.Load()
}

// ShardStats reports shard i's cache counters and current entry count
// (the /shards introspection document).
func (c *ShardedCache) ShardStats(i int) (hits, misses, evictions uint64, entries int) {
	hits, misses, evictions = c.shards[i].Stats()
	return hits, misses, evictions, c.shards[i].Len()
}

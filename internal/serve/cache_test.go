package serve

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestShardForPrefix pins the fingerprint-prefix shard mapping: the
// leading hex digits select the shard via the low mask bits.
func TestShardForPrefix(t *testing.T) {
	c := NewShardedCache(CacheConfig{Shards: 8, ShardCap: 4}, nil)
	if got := c.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8", got)
	}
	cases := map[string]int{
		"00000000ffff": 0,
		"00000005ffff": 5,
		"0000000fffff": 7, // 0xf & 7
		"deadbeef0000": int(0xdeadbeef & 7),
	}
	for key, want := range cases {
		if got := c.ShardFor(key); got != want {
			t.Errorf("ShardFor(%q) = %d, want %d", key, got, want)
		}
	}
	// Non-hex keys must still land somewhere in range (FNV fallback).
	if got := c.ShardFor("zzz"); got < 0 || got >= 8 {
		t.Errorf("ShardFor(non-hex) = %d, out of range", got)
	}
	// Shard count rounds up to a power of two.
	if got := NewShardedCache(CacheConfig{Shards: 5}, nil).Shards(); got != 8 {
		t.Errorf("Shards(5 requested) = %d, want 8", got)
	}
}

// TestCacheLRUEviction pins eviction order and counter accuracy on one
// shard: capacity 2, with a touch refreshing recency.
func TestCacheLRUEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewShardedCache(CacheConfig{Shards: 1, ShardCap: 2}, reg)
	ctx := context.Background()
	runs := 0
	do := func(key string) (string, bool) {
		body, hit, err := c.Do(ctx, key, func(context.Context) ([]byte, error) {
			runs++
			return []byte("body-" + key), nil
		})
		if err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
		return string(body), hit
	}

	do("a")
	do("b")
	do("c") // evicts a (oldest)
	if _, hit := do("b"); !hit {
		t.Fatalf("b should still be cached")
	}
	do("d") // b was just touched, so this evicts c
	if _, hit := do("c"); hit {
		t.Fatalf("c should have been evicted by d")
	}
	if _, hit := do("a"); hit {
		t.Fatalf("a should have been evicted by c")
	}
	// runs: a, b, c, d, c(again), a(again) = 6; hits: the b lookup = 1.
	if runs != 6 {
		t.Fatalf("fill ran %d times, want 6", runs)
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 6 {
		t.Fatalf("stats = %d hits / %d misses, want 1/6", hits, misses)
	}
	// Evictions: a (by c), c (by d), b (by c-again), d (by a-again) = 4.
	if evictions != 4 {
		t.Fatalf("evictions = %d, want 4", evictions)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "adore_serve_cache_evictions_total 4") {
		t.Fatalf("registry not mirroring evictions:\n%s", buf.String())
	}
}

// TestCacheSingleFlight pins dedup through the shard router: concurrent
// identical keys run fill once on one shard, all see its body, and that
// shard's load and cache counters record every request.
func TestCacheSingleFlight(t *testing.T) {
	c := NewShardedCache(CacheConfig{Shards: 2, ShardCap: 8}, nil)
	ctx := context.Background()
	var runs atomic.Int64
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, err := c.Do(ctx, "abc123", func(context.Context) ([]byte, error) {
				runs.Add(1)
				<-release
				return []byte("shared"), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			bodies[i] = string(body)
		}(i)
	}
	for hits, _, _ := c.Stats(); hits < n-1; hits, _, _ = c.Stats() {
		time.Sleep(time.Millisecond) // until every waiter has joined
	}
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("fill ran %d times under concurrency, want 1", got)
	}
	for i, b := range bodies {
		if b != "shared" {
			t.Fatalf("waiter %d got %q", i, b)
		}
	}
	shard := c.ShardFor("abc123")
	hits, misses, _, entries := c.ShardStats(shard)
	if misses != 1 || hits != n-1 || entries != 1 {
		t.Fatalf("shard %d stats = %d hits / %d misses / %d entries, want %d/1/1", shard, hits, misses, entries, n-1)
	}
	if requests, _ := c.ShardLoad(shard); requests != n {
		t.Fatalf("shard %d load = %d requests, want %d", shard, requests, n)
	}
	if requests, _ := c.ShardLoad(1 - shard); requests != 0 {
		t.Fatalf("idle shard load = %d requests, want 0", requests)
	}
}

// TestCachePanicReleasesWaiters pins the panic path through the shard
// router: a panicking fill hands its waiters an error instead of a hang,
// reaches its own caller, leaves no entry on its shard, and still counts
// in that shard's load.
func TestCachePanicReleasesWaiters(t *testing.T) {
	c := NewShardedCache(CacheConfig{Shards: 1, ShardCap: 4}, nil)
	ctx := context.Background()
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(ctx, "k", func(context.Context) ([]byte, error) {
			for hits, _, _ := c.Stats(); hits == 0; hits, _, _ = c.Stats() {
				time.Sleep(time.Millisecond) // until the waiter has joined
			}
			panic("fill died")
		})
	}()
	for _, misses, _ := c.Stats(); misses == 0; _, misses, _ = c.Stats() {
		time.Sleep(time.Millisecond) // until the fill is in flight
	}

	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func(context.Context) ([]byte, error) {
			return []byte("second"), nil
		})
		waiterDone <- err
	}()
	select {
	case err := <-waiterDone:
		if err == nil {
			t.Fatal("waiter joined a panicked fill and got a nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded behind a panicked fill")
	}
	if r := <-panicked; r != "fill died" {
		t.Fatalf("filling caller recovered %v, want the fill's panic", r)
	}

	// The shard must be clean for retries.
	if _, _, _, entries := c.ShardStats(0); entries != 0 {
		t.Fatalf("shard holds %d entries after a panicked fill, want 0", entries)
	}
	body, hit, err := c.Do(ctx, "k", func(context.Context) ([]byte, error) {
		return []byte("retry"), nil
	})
	if err != nil || hit || string(body) != "retry" {
		t.Fatalf("retry after panic: body=%q hit=%v err=%v", body, hit, err)
	}
	if requests, _ := c.ShardLoad(0); requests != 3 {
		t.Fatalf("shard load = %d requests, want 3 (panicked, waiter, retry)", requests)
	}
}

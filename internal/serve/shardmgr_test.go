package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestSlotPoolResize pins the resizable-semaphore bookkeeping: shrink
// with slots outstanding books debt that releases pay down; growth
// cancels debt before adding tokens.
func TestSlotPoolResize(t *testing.T) {
	ctx := context.Background()
	p := newSlotPool(8, 2)
	if p.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", p.Cap())
	}
	// Take both slots.
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Shrink to 1 while both are outstanding: nothing free to remove, so
	// the shrink becomes debt and the next release is swallowed.
	p.Resize(1)
	p.Release()
	timed, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if err := p.Acquire(timed); err == nil {
		t.Fatal("acquire succeeded past the shrunken allocation")
	}
	// The second release lands as the single live token.
	p.Release()
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	p.Release()

	// Growth must mint usable tokens.
	p.Resize(3)
	for i := 0; i < 3; i++ {
		if err := p.Acquire(ctx); err != nil {
			t.Fatalf("acquire %d after grow: %v", i, err)
		}
	}
	// Grow while debt is pending: shrink 3->0 (all outstanding = 3 debt),
	// then grow to 2 — debt absorbs the growth, so after releasing all
	// three, exactly 2 tokens exist.
	p.Resize(0)
	p.Resize(2)
	p.Release()
	p.Release()
	p.Release()
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	timed2, cancel2 := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel2()
	if err := p.Acquire(timed2); err == nil {
		t.Fatal("more tokens live than the allocation")
	}
}

// TestSplitAllocation pins the budget split: floors, proportionality,
// largest-remainder rounding, and the oversubscribed floor-wins case.
func TestSplitAllocation(t *testing.T) {
	cache := NewShardedCache(CacheConfig{Shards: 4, ShardCap: 4}, nil)
	m := NewShardManager(cache, ManagerConfig{TotalSlots: 10, MinPerShard: 1}, nil)

	sum := func(a []int) int {
		s := 0
		for _, v := range a {
			s += v
		}
		return s
	}

	// No signal: even split of the whole budget.
	even := m.split([]float64{0, 0, 0, 0})
	if sum(even) != 10 {
		t.Fatalf("even split spends %d of 10", sum(even))
	}
	for i, v := range even {
		if v < 2 || v > 3 {
			t.Fatalf("even split shard %d = %d, want 2..3", i, v)
		}
	}

	// One hot shard takes the spare; everyone keeps the floor.
	hot := m.split([]float64{9, 0, 0, 0})
	if want := []int{7, 1, 1, 1}; !equalInts(hot, want) {
		t.Fatalf("hot split = %v, want %v", hot, want)
	}

	// Largest remainder: 6 spare across weights 1:1:1:3 → exact shares
	// 1,1,1,3 — all integral here, so check a fractional case too.
	frac := m.split([]float64{1, 1, 1, 2})
	if sum(frac) != 10 {
		t.Fatalf("fractional split spends %d of 10", sum(frac))
	}
	if frac[3] <= frac[0] {
		t.Fatalf("heavier shard not favored: %v", frac)
	}

	// Budget under the floor: every shard still gets the floor (a
	// zero-slot shard would deadlock its misses).
	tight := NewShardManager(cache, ManagerConfig{TotalSlots: 2, MinPerShard: 1}, nil)
	for i, v := range tight.split([]float64{0, 0, 0, 0}) {
		if v < 1 {
			t.Fatalf("oversubscribed split starves shard %d: %v", i, v)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRebalanceTracksLoad drives the control loop deterministically:
// synthetic load deltas on one shard must pull worker slots toward it,
// and the per-shard gauges must publish the observed signals.
func TestRebalanceTracksLoad(t *testing.T) {
	reg := metrics.NewRegistry()
	cache := NewShardedCache(CacheConfig{Shards: 2, ShardCap: 4}, reg)
	m := NewShardManager(cache, ManagerConfig{TotalSlots: 8, MinPerShard: 1, Alpha: 1}, reg)

	start := m.Allocations()
	if start[0] != 4 || start[1] != 4 {
		t.Fatalf("initial allocation = %v, want even [4 4]", start)
	}

	// Shard 0: 100 requests × 200ms mean over a 1s interval ≈ 20 slots of
	// offered work. Shard 1: idle.
	cache.load[0].requests.Add(100)
	cache.load[0].latencyNS.Add(100 * 200_000_000)
	m.Rebalance(time.Second)

	alloc := m.Allocations()
	if alloc[0] <= alloc[1] {
		t.Fatalf("hot shard not favored: %v", alloc)
	}
	if alloc[0]+alloc[1] != 8 {
		t.Fatalf("allocation spends %d of 8", alloc[0]+alloc[1])
	}
	if alloc[1] < 1 {
		t.Fatalf("cold shard below floor: %v", alloc)
	}

	// Gauges publish the interval's signals: 100 RPS = 100000 milli-RPS,
	// 200ms mean = 200000µs.
	var snap = map[string]int64{}
	for _, s := range reg.Snapshot() {
		snap[s.Name] = s.Gauge
	}
	if got := snap["adore_serve_shard_0_rps_milli"]; got != 100000 {
		t.Errorf("rps gauge = %d, want 100000", got)
	}
	if got := snap["adore_serve_shard_0_latency_us"]; got != 200000 {
		t.Errorf("latency gauge = %d, want 200000", got)
	}
	if got := snap["adore_serve_shard_0_workers"]; got != int64(alloc[0]) {
		t.Errorf("workers gauge = %d, want %d", got, alloc[0])
	}

	// Load dies down: allocations drift back toward even.
	m.Rebalance(time.Second)
	cooled := m.Allocations()
	if cooled[0] != 4 || cooled[1] != 4 {
		t.Fatalf("after cooldown (alpha=1) allocation = %v, want [4 4]", cooled)
	}
}

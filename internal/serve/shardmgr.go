package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
)

// The shard manager: the control loop of the run fleet. Each shard owns a
// resizable pool of worker slots; a cache miss acquires a slot from its
// shard's pool before simulating, so the fleet's total concurrency is
// bounded and the split across shards is a policy the manager re-decides
// every interval from the shards' observed load (request rate × mean
// latency ≈ offered concurrency, Little's law), smoothed with an EWMA so
// one bursty interval does not thrash allocations. Hot shards grow, cold
// shards shrink to the floor — the add/drop-replica loop of a sharded
// cache fleet, scaled down to one process.

// slotPool is a context-aware resizable semaphore. Tokens live in a
// buffered channel sized for the largest possible allocation; shrinking
// swallows tokens as they are released (debt) when none are free to
// remove immediately.
type slotPool struct {
	tokens chan struct{}
	mu     sync.Mutex
	cap    int // current allocation
	debt   int // tokens to swallow on release after a shrink
}

func newSlotPool(max, initial int) *slotPool {
	if initial > max {
		initial = max
	}
	p := &slotPool{tokens: make(chan struct{}, max), cap: initial}
	for i := 0; i < initial; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Acquire takes a slot, blocking until one frees or ctx fires.
func (p *slotPool) Acquire(ctx context.Context) error {
	select {
	case <-p.tokens:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot (or pays down shrink debt).
func (p *slotPool) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.debt > 0 {
		p.debt--
		return
	}
	p.tokens <- struct{}{}
}

// Resize sets the allocation to n slots. Growth first cancels pending
// debt, then adds tokens; shrinking removes free tokens immediately and
// books the remainder as debt against future releases.
func (p *slotPool) Resize(n int) {
	if n < 0 {
		n = 0
	}
	if n > cap(p.tokens) {
		n = cap(p.tokens)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	delta := n - p.cap
	p.cap = n
	for delta > 0 && p.debt > 0 {
		p.debt--
		delta--
	}
	for ; delta > 0; delta-- {
		p.tokens <- struct{}{}
	}
	for ; delta < 0; delta++ {
		select {
		case <-p.tokens:
		default:
			p.debt++
		}
	}
}

// Cap reports the current allocation.
func (p *slotPool) Cap() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cap
}

// ManagerConfig sizes the shard manager.
type ManagerConfig struct {
	// TotalSlots is the fleet's worker budget, split across shards.
	// Default GOMAXPROCS.
	TotalSlots int
	// MinPerShard is the allocation floor (a shard must always be able to
	// make progress). Default 1.
	MinPerShard int
	// Interval is the rebalance period of the Run loop. Default 2s.
	Interval time.Duration
	// Alpha is the EWMA weight of the newest load observation. Default 0.5.
	Alpha float64
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.TotalSlots <= 0 {
		c.TotalSlots = runtime.GOMAXPROCS(0)
	}
	if c.MinPerShard <= 0 {
		c.MinPerShard = 1
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.5
	}
	return c
}

// ShardManager watches per-shard latency/RPS and resizes the shards'
// worker-slot pools.
type ShardManager struct {
	cfg   ManagerConfig
	cache *ShardedCache
	pools []*slotPool

	lastReq []uint64
	lastLat []uint64
	ewma    []float64

	rps     []*metrics.Gauge // adore_serve_shard_<i>_rps_milli
	latency []*metrics.Gauge // adore_serve_shard_<i>_latency_us
	workers []*metrics.Gauge // adore_serve_shard_<i>_workers
}

// NewShardManager builds the manager over cache's shards, every pool
// starting at an even split of the slot budget, and registers the
// per-shard gauges on reg (nil runs unmetered).
func NewShardManager(cache *ShardedCache, cfg ManagerConfig, reg *metrics.Registry) *ShardManager {
	cfg = cfg.withDefaults()
	n := cache.Shards()
	m := &ShardManager{
		cfg:     cfg,
		cache:   cache,
		pools:   make([]*slotPool, n),
		lastReq: make([]uint64, n),
		lastLat: make([]uint64, n),
		ewma:    make([]float64, n),
		rps:     make([]*metrics.Gauge, n),
		latency: make([]*metrics.Gauge, n),
		workers: make([]*metrics.Gauge, n),
	}
	for i := 0; i < n; i++ {
		m.rps[i] = reg.Gauge(fmt.Sprintf("adore_serve_shard_%d_rps_milli", i), "shard request rate over the last rebalance interval, milli-requests/s")
		m.latency[i] = reg.Gauge(fmt.Sprintf("adore_serve_shard_%d_latency_us", i), "shard mean service latency over the last rebalance interval, µs")
		m.workers[i] = reg.Gauge(fmt.Sprintf("adore_serve_shard_%d_workers", i), "worker slots currently allocated to the shard")
	}
	alloc := m.evenSplit()
	for i := 0; i < n; i++ {
		m.pools[i] = newSlotPool(cfg.TotalSlots, alloc[i])
		m.workers[i].Set(int64(alloc[i]))
	}
	return m
}

// Pool returns shard i's slot pool.
func (m *ShardManager) Pool(i int) *slotPool { return m.pools[i] }

// Allocations reports the current per-shard slot allocation.
func (m *ShardManager) Allocations() []int {
	out := make([]int, len(m.pools))
	for i, p := range m.pools {
		out[i] = p.Cap()
	}
	return out
}

// Run rebalances every Interval until ctx fires.
func (m *ShardManager) Run(ctx context.Context) {
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.Rebalance(m.cfg.Interval)
		}
	}
}

// Rebalance performs one control step over an interval of the given
// length: fold each shard's request/latency deltas into its load EWMA,
// publish the RPS/latency gauges, and redistribute the slot budget
// proportionally to the smoothed load (floor MinPerShard each, largest
// remainder for the leftovers). Exported so tests (and callers with
// their own cadence) can drive the loop deterministically.
func (m *ShardManager) Rebalance(elapsed time.Duration) {
	n := len(m.pools)
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
	for i := 0; i < n; i++ {
		req, lat := m.cache.ShardLoad(i)
		dReq := req - m.lastReq[i]
		dLat := lat - m.lastLat[i]
		m.lastReq[i], m.lastLat[i] = req, lat
		rps := float64(dReq) / secs
		var meanNS float64
		if dReq > 0 {
			meanNS = float64(dLat) / float64(dReq)
		}
		// Offered concurrency ≈ arrival rate × service time.
		work := rps * meanNS / 1e9
		m.ewma[i] = m.cfg.Alpha*work + (1-m.cfg.Alpha)*m.ewma[i]
		m.rps[i].Set(int64(rps * 1000))
		m.latency[i].Set(int64(meanNS / 1000))
	}
	alloc := m.split(m.ewma)
	for i := 0; i < n; i++ {
		m.pools[i].Resize(alloc[i])
		m.workers[i].Set(int64(alloc[i]))
	}
}

// evenSplit divides the budget with no load signal.
func (m *ShardManager) evenSplit() []int {
	return m.split(make([]float64, m.cache.Shards()))
}

// split allocates TotalSlots across shards proportionally to weight,
// with a MinPerShard floor and deterministic largest-remainder rounding
// (ties to the lower shard index). A zero weight vector splits evenly.
func (m *ShardManager) split(weight []float64) []int {
	n := len(weight)
	alloc := make([]int, n)
	floor := m.cfg.MinPerShard
	total := m.cfg.TotalSlots
	if total < n*floor {
		// Budget under the floor (more shards than slots): the floor wins,
		// because a zero-slot shard deadlocks every miss that hashes to it.
		// This oversubscribes: nothing else bounds concurrent simulations
		// (each Engine.RunJob call runs on a worker of its own), so up to
		// n*floor misses simulate at once, more than TotalSlots.
		for i := range alloc {
			alloc[i] = floor
		}
		return alloc
	}
	spare := total - n*floor
	var sum float64
	for _, w := range weight {
		sum += w
	}
	for i := range alloc {
		alloc[i] = floor
	}
	if spare == 0 {
		return alloc
	}
	if sum == 0 {
		for i := 0; spare > 0; i = (i + 1) % n {
			alloc[i]++
			spare--
		}
		return alloc
	}
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, n)
	used := 0
	for i, w := range weight {
		exact := float64(spare) * w / sum
		whole := int(exact)
		alloc[i] += whole
		used += whole
		rems[i] = rem{i: i, frac: exact - float64(whole)}
	}
	// Largest remainder first; stable on ties by shard index.
	for left := spare - used; left > 0; left-- {
		best := -1
		for j := range rems {
			if best < 0 || rems[j].frac > rems[best].frac {
				best = j
			}
		}
		alloc[rems[best].i]++
		rems[best].frac = -1
	}
	return alloc
}

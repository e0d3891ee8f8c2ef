package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/workloads"
)

func TestEngineMapSlotsResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := NewEngine(EngineConfig{Parallelism: workers})
		const n = 32
		out := make([]int, n)
		err := e.Map(context.Background(), n, func(_ context.Context, i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range out {
			if out[i] != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, out[i])
			}
		}
	}
}

func TestEngineMapFirstErrorCancelsRest(t *testing.T) {
	e := NewEngine(EngineConfig{Parallelism: 2})
	boom := errors.New("boom")
	var ran atomic.Int64
	err := e.Map(context.Background(), 1000, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Fatal("error did not stop job dispatch")
	}
}

func TestEngineMapHonorsParentCancellation(t *testing.T) {
	e := NewEngine(EngineConfig{Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.Map(ctx, 10, func(context.Context, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEngineProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var starts, dones int
	e := NewEngine(EngineConfig{Parallelism: 2, OnProgress: func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		if p.Done {
			dones++
		} else {
			starts++
		}
		if p.Total != 2 || p.Sweep != "test" {
			t.Errorf("bad progress event %+v", p)
		}
	}})
	b, err := workloads.ByName("mcf", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sp := benchSpec(b, 0.02, compiler.O2)
	jobs := []Job{
		{Name: "mcf/a", Compile: sp, Config: DefaultRunConfig()},
		{Name: "mcf/b", Compile: sp, Config: DefaultRunConfig()},
	}
	if _, err := e.RunJobs(context.Background(), "test", jobs); err != nil {
		t.Fatal(err)
	}
	if starts != 2 || dones != 2 {
		t.Fatalf("starts=%d dones=%d, want 2/2", starts, dones)
	}
}

// TestBuildCacheSingleFlight proves the cache compiles once per key no
// matter how many goroutines race on it, and that distinct options miss
// separately.
func TestBuildCacheSingleFlight(t *testing.T) {
	b, err := workloads.ByName("mcf", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	c := NewBuildCache(0)
	sp := benchSpec(b, 0.02, compiler.O2)

	const callers = 8
	builds := make([]*compiler.BuildResult, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			br, err := c.Build(sp)
			if err != nil {
				t.Error(err)
				return
			}
			builds[i] = br
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if builds[i] != builds[0] {
			t.Fatalf("caller %d got a different build", i)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != callers-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, callers-1)
	}

	// A different optimization level is a different key.
	if _, err := c.Build(benchSpec(b, 0.02, compiler.O3)); err != nil {
		t.Fatal(err)
	}
	if _, misses := c.Stats(); misses != 2 {
		t.Fatalf("misses after O3 = %d, want 2", misses)
	}
	// Same spec again: pure hit.
	if _, err := c.Build(sp); err != nil {
		t.Fatal(err)
	}
	if hits, _ := c.Stats(); hits != callers {
		t.Fatalf("hits after re-ask = %d, want %d", hits, callers)
	}
}

// TestBuildCacheBounded pins the build cache's capacity: building cap+k
// distinct specs leaves at most cap builds cached, and an evicted spec
// compiles again. adore-serve relies on it, since every distinct request
// scale is a new compile key.
func TestBuildCacheBounded(t *testing.T) {
	const capacity, extra = 2, 2
	c := NewBuildCache(capacity)
	specs := make([]CompileSpec, capacity+extra)
	for i := range specs {
		b, err := workloads.ByName("gzip", 0.01*float64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = benchSpec(b, 0.01*float64(i+1), compiler.O2)
		if _, err := c.Build(specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > capacity {
		t.Fatalf("cache holds %d builds, want at most %d", n, capacity)
	}
	if got := c.Evictions(); got != extra {
		t.Fatalf("evictions = %d, want %d", got, extra)
	}
	if _, err := c.Build(specs[0]); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != capacity+extra+1 {
		t.Fatalf("stats = %d hits / %d misses, want 0/%d (evicted spec recompiled)", hits, misses, capacity+extra+1)
	}
}

// TestBuildCachePanicReleasesWaiters: a panicking compile must reach its
// caller and leave no entry, a Build that joined a fill which then panics
// must return an error instead of blocking forever, and a retry compiles
// afresh.
func TestBuildCachePanicReleasesWaiters(t *testing.T) {
	b, err := workloads.ByName("gzip", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	c := NewBuildCache(0)
	sp := benchSpec(b, 0.01, compiler.O2)

	// A real compile that panics: a spec with no kernel under sp's key.
	broken := sp
	broken.Kernel = nil
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compile of a nil kernel did not panic through Build")
			}
		}()
		c.Build(broken)
	}()
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d builds after a panicked compile, want 0", n)
	}

	// A waiter: Build joins an in-flight fill of sp's key that panics
	// once the waiter has joined.
	go func() {
		defer func() { recover() }()
		c.c.Do(context.Background(), sp.Key(), func(context.Context) (*compiler.BuildResult, error) {
			for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
				time.Sleep(time.Millisecond) // until the waiter has joined
			}
			panic("compiler died")
		})
	}()
	for _, misses := c.Stats(); misses < 2; _, misses = c.Stats() {
		time.Sleep(time.Millisecond) // until the fill is in flight
	}
	type built struct {
		build *compiler.BuildResult
		err   error
	}
	waited := make(chan built, 1)
	go func() {
		build, err := c.Build(sp)
		waited <- built{build, err}
	}()
	select {
	case w := <-waited:
		if w.err == nil || w.build != nil {
			t.Fatalf("waiter of a panicked compile: build=%v err=%v, want nil build and an error", w.build, w.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded on a panicked compile")
	}

	// The entry was removed, so a retry compiles fresh and succeeds.
	build, err := c.Build(sp)
	if err != nil || build == nil {
		t.Fatalf("retry after a panicked compile: build=%v err=%v", build, err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 3 {
		t.Fatalf("stats = %d hits / %d misses, want 1/3 (two panicked fills + retry)", hits, misses)
	}
}

// TestRunJobsSharesCompiles asserts the Fig. 7 job shape — two runs per
// benchmark over one compile — really does hit the cache.
func TestRunJobsSharesCompiles(t *testing.T) {
	b, err := workloads.ByName("gzip", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{Parallelism: 2})
	sp := benchSpec(b, 0.05, compiler.O2)
	adore := DefaultRunConfig()
	adore.ADORE = true
	runs, err := e.RunJobs(context.Background(), "test", []Job{
		{Name: "gzip/base", Compile: sp, Config: DefaultRunConfig()},
		{Name: "gzip/adore", Compile: sp, Config: adore},
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0] == nil || runs[1] == nil {
		t.Fatal("missing results")
	}
	if runs[0].Core != nil || runs[1].Core == nil {
		t.Fatal("results not slotted by index: base/adore swapped")
	}
	hits, misses := e.Cache().Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestRunContextCancellation proves cancellation reaches the CPU loop: a
// pre-cancelled context stops the run before it simulates anything.
func TestRunContextCancellation(t *testing.T) {
	b, err := workloads.ByName("mcf", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	build, err := compiler.Build(b.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, build, DefaultRunConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelMidRun cancels a run already in flight and expects it
// to stop long before the workload would finish.
func TestRunContextCancelMidRun(t *testing.T) {
	b, err := workloads.ByName("mcf", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	build, err := compiler.Build(b.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, build, DefaultRunConfig())
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResultCacheWaiterNotStranded wires a real simulation through the
// result cache: the run sees its caller's ctx, a waiter whose own ctx
// fires returns at once instead of stranding on the in-flight run, and a
// canceled run is not cached, so a retry re-runs instead of replaying the
// stale error.
func TestResultCacheWaiterNotStranded(t *testing.T) {
	b, err := workloads.ByName("mcf", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	long, err := compiler.Build(b.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := NewResultCache(0)
	cfg := DefaultRunConfig()

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := c.Run(ctxA, "k", long, cfg)
		errA <- err
	}()
	for _, misses := c.Stats(); misses == 0; _, misses = c.Stats() {
		time.Sleep(time.Millisecond) // until A's run is in flight
	}

	ctxB, cancelB := context.WithCancel(context.Background())
	errB := make(chan error, 1)
	go func() {
		_, err := c.Run(ctxB, "k", long, cfg)
		errB <- err
	}()
	for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
		time.Sleep(time.Millisecond) // until B has joined A's run
	}
	cancelB()
	select {
	case err := <-errB:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter stranded on an in-flight run after its own ctx fired")
	}

	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("runner err = %v, want context.Canceled", err)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after a canceled run, want 0", n)
	}
	// The key names the (compile, config) pair, so a short build run
	// under it proves the retry simulates afresh.
	short, err := workloads.ByName("gzip", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := compiler.Build(short.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), "k", sb, cfg)
	if err != nil || res == nil {
		t.Fatalf("retry after canceled run: res=%v err=%v", res, err)
	}
	if _, misses := c.Stats(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (canceled + retry)", misses)
	}
}

// TestResultCachePanicReleasesWaiters wires a real panicking simulation
// through the result cache: an OnOptimize hook panics mid-run once a
// waiter has joined. The panic must reach the running caller, the waiter
// must get an error instead of stranding, no entry may remain, and a
// retry simulates afresh.
func TestResultCachePanicReleasesWaiters(t *testing.T) {
	b, err := workloads.ByName("mcf", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	build, err := compiler.Build(b.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := NewResultCache(0)
	cfg := DefaultRunConfig()
	cfg.ADORE = true
	// The hook is not part of the fingerprint, so hooked and cfg share a key.
	hooked := cfg
	hooked.OnOptimize = func(*core.Trace, []core.DelinquentLoad, core.OptimizeResult) {
		for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
			time.Sleep(time.Millisecond) // until the waiter has joined
		}
		panic("runner died")
	}

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Run(context.Background(), "k", build, hooked)
	}()
	for _, misses := c.Stats(); misses == 0; _, misses = c.Stats() {
		time.Sleep(time.Millisecond) // until the hooked run is in flight
	}
	waited := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), "k", build, cfg)
		waited <- err
	}()
	select {
	case err := <-waited:
		if err == nil {
			t.Fatal("waiter of a panicked run returned a nil error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter stranded on a panicked run")
	}
	if r := <-panicked; r != "runner died" {
		t.Fatalf("running caller recovered %v, want the hook's panic", r)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after a panicked run, want 0", n)
	}

	res, err := c.Run(context.Background(), "k", build, cfg)
	if err != nil || res == nil {
		t.Fatalf("retry after a panicked run: res=%v err=%v", res, err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 1/2 (panicked run + retry)", hits, misses)
	}
}

// TestResultCacheBoundedLRU pins the bounded mode on real (short) runs:
// least-recently-touched completed entries are evicted past capacity,
// touching refreshes recency, and the eviction counter is exact.
func TestResultCacheBoundedLRU(t *testing.T) {
	b, err := workloads.ByName("gzip", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	build, err := compiler.Build(b.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := NewResultCache(2)
	cfg := DefaultRunConfig()
	must := func(key string) {
		t.Helper()
		if res, err := c.Run(context.Background(), key, build, cfg); err != nil || res.FinalMemory != nil {
			t.Fatalf("Run(%s): err=%v, detached=%v", key, err, err == nil && res.FinalMemory == nil)
		}
	}
	must("a")
	must("b")
	must("c") // evicts a
	if got := c.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	must("b") // hit; refreshes b over c
	must("d") // evicts c (b was touched)
	if got := c.Evictions(); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	must("b") // still cached
	must("a") // was evicted: re-runs, evicts d
	hits, misses := c.Stats()
	if hits != 2 || misses != 5 {
		t.Fatalf("stats = %d hits / %d misses, want 2/5 (a b c d + re-run of a)", hits, misses)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", n)
	}
}

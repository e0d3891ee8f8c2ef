package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compiler"
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
	c := NewBuildCache()
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

// TestBuildCachePanicReleasesWaiters: a panicking compile must release
// the waiters that joined it with an error and evict its entry before the
// panic unwinds, so neither they nor any later request for the key block
// forever, and a retry compiles afresh.
func TestBuildCachePanicReleasesWaiters(t *testing.T) {
	c := NewBuildCache()
	var calls atomic.Int64
	entered := make(chan struct{})
	c.buildFn = func(*compiler.Kernel, compiler.Options) (*compiler.BuildResult, error) {
		if calls.Add(1) > 1 {
			return &compiler.BuildResult{}, nil
		}
		close(entered)
		for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
			time.Sleep(time.Millisecond) // until the waiter has joined
		}
		panic("compiler died")
	}
	sp := CompileSpec{Name: "k", Options: compiler.DefaultOptions()}
	go func() {
		defer func() { recover() }()
		c.Build(sp)
	}()
	<-entered

	waited := make(chan error, 1)
	go func() {
		_, err := c.Build(sp)
		waited <- err
	}()
	select {
	case err := <-waited:
		if err == nil {
			t.Fatal("waiter of a panicked compile returned a nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded on a panicked compile")
	}

	// The entry was evicted, so a retry compiles fresh and succeeds.
	build, err := c.Build(sp)
	if err != nil || build == nil {
		t.Fatalf("retry after a panicked compile: build=%v err=%v", build, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("compiles = %d, want 2 (panicked + retry)", n)
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

// TestResultCacheWaiterNotStranded is the regression test for the serve
// hardening PR: a sweep whose first runner is canceled must not strand a
// concurrent second waiter on a ready channel that never closes (or that
// closes only when the stuck runner eventually dies). The waiter blocks on
// the in-flight run OR its own context, and a retry after the canceled
// first runner re-runs instead of replaying the stale error.
func TestResultCacheWaiterNotStranded(t *testing.T) {
	c := NewResultCache()
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	c.runFn = func(ctx context.Context, _ *compiler.BuildResult, _ RunConfig) (*RunResult, error) {
		started <- struct{}{}
		select {
		case <-block:
			return &RunResult{Name: "stub"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cfg := DefaultRunConfig()

	// First runner: holds the in-flight entry until its context fires.
	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := c.Run(ctxA, "k", nil, cfg)
		errA <- err
	}()
	<-started

	// Second waiter with its own live context: joins the in-flight entry.
	// Canceling ITS context must release it promptly even though the first
	// runner is still stuck.
	ctxB, cancelB := context.WithCancel(context.Background())
	errB := make(chan error, 1)
	go func() {
		_, err := c.Run(ctxB, "k", nil, cfg)
		errB <- err
	}()
	time.Sleep(5 * time.Millisecond) // let B reach the wait
	cancelB()
	select {
	case err := <-errB:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second waiter stranded on a canceled context")
	}

	// Cancel the first runner: its error evicts the entry...
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("runner err = %v, want context.Canceled", err)
	}
	// ...so a retried sweep re-runs and succeeds.
	close(block)
	res, err := c.Run(context.Background(), "k", nil, cfg)
	if err != nil || res == nil || res.Name != "stub" {
		t.Fatalf("retry after canceled runner: res=%v err=%v", res, err)
	}
	if hits, misses := c.Stats(); misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 2 misses (canceled + retry)", hits, misses)
	}
}

// TestResultCachePanicReleasesWaiters: a panicking runner must evict its
// entry and close the ready channel before the panic unwinds, so waiters
// see an error instead of stranding forever.
func TestResultCachePanicReleasesWaiters(t *testing.T) {
	c := NewResultCache()
	entered := make(chan struct{})
	c.runFn = func(context.Context, *compiler.BuildResult, RunConfig) (*RunResult, error) {
		close(entered)
		time.Sleep(5 * time.Millisecond) // let the waiter join first
		panic("runner died")
	}
	cfg := DefaultRunConfig()
	go func() {
		defer func() { recover() }()
		c.Run(context.Background(), "k", nil, cfg)
	}()
	<-entered
	_, err := c.Run(context.Background(), "k", nil, cfg)
	if err == nil {
		t.Fatal("waiter of a panicked runner returned a nil error")
	}
	// The entry was evicted, so a retry runs fresh (and panics again here,
	// but through its own call — prove the eviction only).
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after a panicked runner, want 0", n)
	}
}

// TestResultCacheBoundedLRU pins the bounded mode: least-recently-touched
// completed entries are evicted past capacity, touching refreshes recency,
// and the eviction counter is exact.
func TestResultCacheBoundedLRU(t *testing.T) {
	c := NewResultCacheBounded(2)
	var runs atomic.Int64
	c.runFn = func(_ context.Context, _ *compiler.BuildResult, _ RunConfig) (*RunResult, error) {
		runs.Add(1)
		return &RunResult{Name: "stub"}, nil
	}
	cfg := DefaultRunConfig()
	ctx := context.Background()
	must := func(key string) {
		t.Helper()
		if _, err := c.Run(ctx, key, nil, cfg); err != nil {
			t.Fatal(err)
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
	if got := runs.Load(); got != 5 {
		t.Fatalf("runs = %d, want 5 (a b c d + re-run of a)", got)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 5 {
		t.Fatalf("stats = %d hits / %d misses, want 2/5", hits, misses)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", n)
	}
}

package flight

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

func value(v string) func(context.Context) (string, error) {
	return func(context.Context) (string, error) { return v, nil }
}

// waitFor polls cond until it holds: the suite orders goroutines by
// observable cache state, never by sleeping a fixed time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func hits[V any](c *Cache[V]) uint64 {
	h, _, _ := c.Stats()
	return h
}

// TestSingleFlight pins dedup: concurrent callers of one key run fill
// once and all share its value, exactly one call reports a miss, distinct
// keys fill separately, and a later call is a pure hit.
func TestSingleFlight(t *testing.T) {
	c := New[string](0)
	var runs atomic.Int64
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	vals := make([]string, n)
	hitFlags := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do(context.Background(), "k", func(context.Context) (string, error) {
				runs.Add(1)
				<-release
				return "shared", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			vals[i], hitFlags[i] = v, hit
		}(i)
	}
	waitFor(t, "every waiter has joined", func() bool { return hits(c) == n-1 })
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("fill ran %d times under concurrency, want 1", got)
	}
	missed := 0
	for i, v := range vals {
		if v != "shared" {
			t.Fatalf("caller %d got %q", i, v)
		}
		if !hitFlags[i] {
			missed++
		}
	}
	if missed != 1 {
		t.Fatalf("%d callers reported a miss, want 1", missed)
	}

	if _, hit, _ := c.Do(context.Background(), "other", value("o")); hit {
		t.Fatal("a distinct key hit")
	}
	if v, hit, _ := c.Do(context.Background(), "k", value("fresh")); !hit || v != "shared" {
		t.Fatalf("re-ask: v=%q hit=%v, want the cached value", v, hit)
	}
	if h, m, e := c.Stats(); h != n || m != 2 || e != 0 {
		t.Fatalf("stats = %d/%d/%d hits/misses/evictions, want %d/2/0", h, m, e, n)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// TestWaiterContextAndRetry pins the no-stranded-waiter rule: a waiter
// whose own ctx fires returns at once while the fill is stuck, the fill
// itself runs under its caller's ctx, and a failed fill is removed so the
// next call fills again instead of replaying the error.
func TestWaiterContextAndRetry(t *testing.T) {
	c := New[string](4)
	fillErr := errors.New("boom")

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	runnerDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctxA, "k", func(ctx context.Context) (string, error) {
			<-ctx.Done()
			return "", fmt.Errorf("%w: %w", fillErr, ctx.Err())
		})
		runnerDone <- err
	}()
	waitFor(t, "the fill is in flight", func() bool { return c.Len() == 1 })

	ctxB, cancelB := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, hit, err := c.Do(ctxB, "k", func(context.Context) (string, error) {
			t.Error("waiter must join the in-flight fill, not run its own")
			return "", nil
		})
		if !hit {
			t.Error("joining an in-flight fill must report a hit")
		}
		waiterDone <- err
	}()
	waitFor(t, "the waiter has joined", func() bool { return hits(c) == 1 })
	cancelB()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter stranded on a stuck fill after its own ctx fired")
	}

	cancelA()
	if err := <-runnerDone; !errors.Is(err, fillErr) || !errors.Is(err, context.Canceled) {
		t.Fatalf("runner returned %v, want the fill error wrapping context.Canceled", err)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after a failed fill, want 0", n)
	}
	v, hit, err := c.Do(context.Background(), "k", value("ok"))
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry after failed fill: v=%q hit=%v err=%v", v, hit, err)
	}
	if _, m, _ := c.Stats(); m != 2 {
		t.Fatalf("misses = %d, want 2 (failed fill + retry)", m)
	}
}

// TestPanicReleasesWaiters pins the panic path: a panicking fill hands
// the waiter that joined it an error instead of a hang, removes its entry
// before the panic continues to the filler, and a retry fills afresh.
func TestPanicReleasesWaiters(t *testing.T) {
	c := New[string](4)
	var calls atomic.Int64
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(context.Background(), "k", func(context.Context) (string, error) {
			calls.Add(1)
			for hits(c) == 0 {
				time.Sleep(time.Millisecond) // until the waiter has joined
			}
			panic("fill died")
		})
	}()
	waitFor(t, "the fill is in flight", func() bool { return calls.Load() == 1 })

	waited := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) (string, error) {
			calls.Add(1)
			return "second", nil
		})
		waited <- err
	}()
	select {
	case err := <-waited:
		if err == nil {
			t.Fatal("waiter of a panicked fill returned a nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded behind a panicked fill")
	}
	if r := <-recovered; r != "fill died" {
		t.Fatalf("filler recovered %v, want the fill's own panic", r)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after a panicked fill, want 0", n)
	}
	v, hit, err := c.Do(context.Background(), "k", func(context.Context) (string, error) {
		calls.Add(1)
		return "retry", nil
	})
	if err != nil || hit || v != "retry" {
		t.Fatalf("retry after panic: v=%q hit=%v err=%v", v, hit, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("fills = %d, want 2 (panicked + retry)", n)
	}
}

// TestLRUEviction pins eviction order and exact counts at capacity 2,
// with touches refreshing recency, and the live metric mirrors.
func TestLRUEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New[string](2)
	c.SetMetrics(reg.Counter("t_hits_total", ""), reg.Counter("t_misses_total", ""), reg.Counter("t_evictions_total", ""))
	runs := 0
	do := func(key string) bool {
		t.Helper()
		v, hit, err := c.Do(context.Background(), key, func(context.Context) (string, error) {
			runs++
			return "v-" + key, nil
		})
		if err != nil || v != "v-"+key {
			t.Fatalf("Do(%s) = %q, %v", key, v, err)
		}
		return hit
	}
	evictions := func() uint64 {
		_, _, e := c.Stats()
		return e
	}

	do("a")
	do("b")
	do("c") // evicts a, the oldest
	if got := evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if !do("b") { // refreshes b over c
		t.Fatal("b should still be cached")
	}
	do("d") // evicts c: b was just touched
	if got := evictions(); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	if !do("b") {
		t.Fatal("b should still be cached")
	}
	if do("c") { // evicted by d: re-fills, evicts d
		t.Fatal("c should have been evicted by d")
	}
	if do("a") { // evicted by c: re-fills, evicts b
		t.Fatal("a should have been evicted by c")
	}
	// Fills: a b c d c a; hits: b twice; evictions: a c d b.
	if runs != 6 {
		t.Fatalf("fill ran %d times, want 6", runs)
	}
	if h, m, e := c.Stats(); h != 2 || m != 6 || e != 4 {
		t.Fatalf("stats = %d/%d/%d hits/misses/evictions, want 2/6/4", h, m, e)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d, want capacity 2", n)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"t_hits_total 2", "t_misses_total 6", "t_evictions_total 4"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("registry missing %q:\n%s", want, buf.String())
		}
	}

	// Capacity <= 0 is unbounded.
	u := New[string](-1)
	for i := 0; i < 100; i++ {
		u.Do(context.Background(), fmt.Sprint(i), value("x"))
	}
	if _, _, e := u.Stats(); e != 0 || u.Len() != 100 {
		t.Fatalf("unbounded cache: %d evictions, Len %d; want 0, 100", e, u.Len())
	}
}

// TestInFlightNotEvicted pins that eviction pressure never drops an entry
// still being filled: a concurrent identical call must join it rather
// than run a duplicate fill.
func TestInFlightNotEvicted(t *testing.T) {
	c := New[string](1)
	ctx := context.Background()
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(ctx, "inflight", func(context.Context) (string, error) {
			<-release
			return "x", nil
		})
	}()
	waitFor(t, "the fill is in flight", func() bool { return c.Len() == 1 })
	// Churn far past capacity while "inflight" is still filling.
	for i := 0; i < 5; i++ {
		c.Do(ctx, fmt.Sprintf("churn-%d", i), value("y"))
	}
	if _, _, e := c.Stats(); e != 4 {
		t.Fatalf("evictions = %d, want 4 (churn only)", e)
	}

	joined := make(chan string, 1)
	go func() {
		v, hit, _ := c.Do(ctx, "inflight", func(context.Context) (string, error) {
			return "dup", nil
		})
		if !hit {
			t.Error("in-flight entry was evicted: an identical call re-ran the fill")
		}
		joined <- v
	}()
	waitFor(t, "the second call has joined", func() bool { return hits(c) == 1 })
	close(release)
	<-done
	if v := <-joined; v != "x" {
		t.Fatalf("joined call got %q, want the in-flight fill's value", v)
	}
	// Completing the in-flight fill enforces the bound again.
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d after the fill completed, want capacity 1", n)
	}
}

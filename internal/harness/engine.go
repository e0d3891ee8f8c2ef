package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/flight"
	"repro/internal/metrics"
)

// The experiment engine: the paper's evaluation sweeps 17 benchmarks ×
// {O2, O3} × {base, ADORE}, and every run is hermetic (private code-segment
// copy, private memory, private hierarchy — see RunContext), so the sweeps
// are embarrassingly parallel. The engine schedules (compile, run) jobs on
// a bounded worker pool, deduplicates compiles through a single-flight
// build cache, and slots results by job index so output is deterministic
// regardless of completion order.

// Progress is one live event from an engine sweep, emitted when a job
// starts (Done false) and when it finishes (Done true).
type Progress struct {
	Sweep string // driver label ("fig7/O2", "table1", ...)
	Job   string // unit label ("mcf/adore")
	Index int    // job index within the sweep
	Total int    // jobs in the sweep
	Done  bool
	Err   error // non-nil on a finished, failed job
}

// EngineConfig sizes the experiment engine.
type EngineConfig struct {
	// Parallelism is the worker-pool width: 1 serializes, 0 uses
	// GOMAXPROCS. The cmd tools' -j flag maps straight onto it.
	Parallelism int

	// OnProgress, when set, observes every job start and finish. It is
	// invoked from worker goroutines and must be safe for concurrent use.
	OnProgress func(Progress)

	// Metrics, when set, instruments the engine on this registry: job and
	// worker telemetry, cache hit/miss counters, and per-job folds of the
	// simulated aggregates (see metrics.go for the semantics). Nil runs
	// the engine unmetered at no cost.
	Metrics *metrics.Registry

	// ResultCacheCap bounds the engine's result cache to this many
	// completed runs and its build cache to this many builds (LRU
	// eviction past it). Zero keeps both caches unbounded — right for
	// one-shot sweeps, wrong for a long-lived service, which is why
	// adore-serve always sets it.
	ResultCacheCap int
}

// Engine runs experiment jobs on a worker pool with shared build and
// result caches. Error handling follows errgroup semantics: the first
// failure cancels the sweep's context, undispatched jobs are abandoned,
// and that first error is what the sweep returns.
type Engine struct {
	cfg     EngineConfig
	cache   *BuildCache
	results *ResultCache
	metrics engineMetrics
	drops   dropCounts
}

// NewEngine creates an engine with fresh caches. Share one engine across
// sweeps (as cmd/adore-bench does) to share them: Fig. 7(a), Table 1 and
// Fig. 11 all compile the same O2 kernels, and Table 2 re-runs Fig. 7's
// exact machine configurations.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{cfg: cfg, cache: NewBuildCache(cfg.ResultCacheCap), results: NewResultCache(cfg.ResultCacheCap)}
	e.metrics = newEngineMetrics(cfg.Metrics)
	e.metrics.workers.Set(int64(e.Parallelism()))
	r := cfg.Metrics
	e.cache.SetMetrics(
		r.Counter("adore_engine_build_cache_hits_total", "compiles served by the build cache"),
		r.Counter("adore_engine_build_cache_misses_total", "actual compiles"))
	e.results.SetMetrics(
		r.Counter("adore_engine_result_cache_hits_total", "runs served by the result cache"),
		r.Counter("adore_engine_result_cache_misses_total", "actual simulations"))
	return e
}

// Parallelism returns the effective worker count.
func (e *Engine) Parallelism() int {
	if e.cfg.Parallelism > 0 {
		return e.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Cache exposes the engine's shared build cache (for its hit counters).
func (e *Engine) Cache() *BuildCache { return e.cache }

// Results exposes the engine's shared result cache (for its hit counters).
func (e *Engine) Results() *ResultCache { return e.results }

func (e *Engine) report(p Progress) {
	if e.cfg.OnProgress != nil {
		e.cfg.OnProgress(p)
	}
}

// Map runs fn(i) for every i in [0, n) on the worker pool. Callers slot
// results into their own output by index, so result order is deterministic
// regardless of completion order. The first error cancels the context
// passed to the remaining jobs, stops dispatch, and is returned.
func (e *Engine) Map(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := e.Parallelism()
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next.Store(-1)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := fn(ctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// CompileSpec names one compilation unit for the build cache. Name must
// encode everything that shapes the kernel itself (for the experiment
// drivers: benchmark name and workload scale); Options covers the rest via
// its fingerprint.
type CompileSpec struct {
	Name    string
	Kernel  *compiler.Kernel
	Options compiler.Options
}

// Key returns the build-cache key for the spec.
func (s CompileSpec) Key() string { return s.Name + "|" + s.Options.Fingerprint() }

// Job pairs a compilation with one run of its result — the unit the engine
// schedules.
type Job struct {
	Name    string // display label for progress output
	Compile CompileSpec
	Config  RunConfig
}

// RunJobs executes the jobs on the worker pool and returns their results
// slotted by index: out[i] belongs to jobs[i] no matter which finished
// first. Jobs naming the same compile spec share one compile through the
// build cache. Every result is detached — statistics only, with nil
// FinalMemory, Arch, Code and Controller (see ResultCache) — and shared
// results are read-only.
func (e *Engine) RunJobs(ctx context.Context, sweep string, jobs []Job) ([]*RunResult, error) {
	out := make([]*RunResult, len(jobs))
	sweepStart := time.Now()
	err := e.Map(ctx, len(jobs), func(ctx context.Context, i int) error {
		return e.runJob(ctx, sweep, jobs, i, sweepStart, out, e.runStraight)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runJob runs jobs[i] into out[i] and wraps it in the engine's job
// telemetry and progress events: it compiles the job through the build
// cache, then hands the build to exec for the simulation itself.
func (e *Engine) runJob(ctx context.Context, sweep string, jobs []Job, i int, sweepStart time.Time, out []*RunResult,
	exec func(context.Context, *Job, *compiler.BuildResult) (*RunResult, error)) error {
	j := &jobs[i]
	jobStart := time.Now()
	e.metrics.queueWait.Observe(uint64(jobStart.Sub(sweepStart)))
	e.metrics.jobsStarted.Inc()
	e.metrics.inflight.Inc()
	e.report(Progress{Sweep: sweep, Job: j.Name, Index: i, Total: len(jobs)})
	if j.Config.Metrics == nil {
		// A metered engine meters its jobs' controllers too. Metrics is
		// fingerprint-exempt, so this never splits result-cache entries.
		j.Config.Metrics = e.cfg.Metrics
	}
	build, err := e.cache.Build(j.Compile)
	if err == nil {
		out[i], err = exec(ctx, j, build)
	}
	elapsed := uint64(time.Since(jobStart))
	e.metrics.inflight.Dec()
	e.metrics.jobLatency.Observe(elapsed)
	e.metrics.workerBusy.Add(elapsed)
	if err != nil {
		e.metrics.jobsFailed.Inc()
	} else {
		e.metrics.jobsDone.Inc()
		e.foldResult(out[i])
	}
	e.report(Progress{Sweep: sweep, Job: j.Name, Index: i, Total: len(jobs), Done: true, Err: err})
	if err != nil {
		return fmt.Errorf("%s: %w", j.Name, err)
	}
	return nil
}

// runStraight simulates one job from the start. A hermetic, hook-free
// job shares one simulation per identical (build, config) pair through
// the result cache: the key includes the run fingerprint, so two configs
// differing in anything observable — notably the prefetch policy — can
// never alias. A hooked job runs privately. Either way the result is
// detached.
func (e *Engine) runStraight(ctx context.Context, j *Job, build *compiler.BuildResult) (*RunResult, error) {
	if j.Config.OnOptimize == nil {
		return e.results.Run(ctx, j.Compile.Key(), build, j.Config)
	}
	return detach(RunContext(ctx, build, j.Config))
}

// RunJob schedules one job — the unit the serve front door submits per
// request — and returns its result. Identical to RunJobs with a
// single-element slice: the job shares the engine's build and result
// caches and its metrics with every other request in flight.
func (e *Engine) RunJob(ctx context.Context, sweep string, job Job) (*RunResult, error) {
	out, err := e.RunJobs(ctx, sweep, []Job{job})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// BuildCache is a single-flight cache of compiler builds keyed by
// CompileSpec.Key, on the shared flight.Cache. Sharing one BuildResult
// between concurrent runs is safe because runs copy the code segment and
// never mutate the image. A failed or panicking compile is not cached:
// its waiters get the error and the next request compiles again (compile
// errors are deterministic, so a retry just reports the same error).
type BuildCache struct {
	c *flight.Cache[*compiler.BuildResult]
}

// NewBuildCache returns an empty cache holding at most capacity builds,
// evicting the least recently used beyond it. A capacity <= 0 is
// unbounded.
func NewBuildCache(capacity int) *BuildCache {
	return &BuildCache{flight.New[*compiler.BuildResult](capacity)}
}

// SetMetrics mirrors the cache's hit/miss counters onto live metric
// counters (nil instruments are valid and free). Call before use.
func (c *BuildCache) SetMetrics(hits, misses *metrics.Counter) { c.c.SetMetrics(hits, misses, nil) }

// Build returns the build for spec, compiling at most once per key no
// matter how many goroutines ask concurrently: latecomers block until the
// first caller's compile finishes and share its result. A compile takes
// no context and cannot be canceled, so neither can waiting for one.
func (c *BuildCache) Build(spec CompileSpec) (*compiler.BuildResult, error) {
	build, _, err := c.c.Do(context.Background(), spec.Key(), func(context.Context) (*compiler.BuildResult, error) {
		return compiler.Build(spec.Kernel, spec.Options)
	})
	return build, err
}

// Stats reports cache effectiveness: hits are requests served by an
// existing or in-flight compile, misses are actual compiles.
func (c *BuildCache) Stats() (hits, misses uint64) {
	hits, misses, _ = c.c.Stats()
	return hits, misses
}

// Evictions reports how many builds the capacity bound dropped.
func (c *BuildCache) Evictions() uint64 {
	_, _, ev := c.c.Stats()
	return ev
}

// Len reports the number of cached (and in-flight) builds.
func (c *BuildCache) Len() int { return c.c.Len() }

// ResultCache is a single-flight cache of completed runs on the shared
// flight.Cache, keyed by the compile key plus the RunConfig fingerprint.
// It stores and returns detached results: statistics only (CPU and
// controller stats, series, observability outputs, and a statistics-only
// Mem), with nil FinalMemory, Arch, Code and Controller. A cached entry
// therefore costs kilobytes, not the simulated heap, code copy, trace
// pool and cache lines of the machine that produced it. One *RunResult is
// shared by every hit, so results are read-only by contract. Differential
// and semantics checks need the machine and call RunContext directly.
//
// A capacity turns the cache into an LRU over completed runs, which is
// what a long-lived process (adore-serve) needs — the unbounded form
// grows forever under a diverse query mix.
type ResultCache struct{ c *flight.Cache[*RunResult] }

// NewResultCache returns an empty cache holding at most capacity
// completed results, evicting the least recently used beyond it. A
// capacity <= 0 is unbounded.
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{flight.New[*RunResult](capacity)}
}

// SetMetrics mirrors the cache's hit/miss counters onto live metric
// counters (nil instruments are valid and free). Call before use.
func (c *ResultCache) SetMetrics(hits, misses *metrics.Counter) { c.c.SetMetrics(hits, misses, nil) }

// Run returns the detached result of simulating build under cfg, running
// each distinct (compileKey, cfg.Fingerprint()) pair at most once no
// matter how many goroutines ask concurrently. The simulation runs under
// the first caller's ctx; a waiter returns early when its own ctx fires,
// and a failed run (e.g. a canceled sweep) is not cached, so a retry
// re-runs instead of replaying a stale context error.
func (c *ResultCache) Run(ctx context.Context, compileKey string, build *compiler.BuildResult, cfg RunConfig) (*RunResult, error) {
	res, _, err := c.c.Do(ctx, compileKey+"|"+cfg.Fingerprint(), func(ctx context.Context) (*RunResult, error) {
		return detach(RunContext(ctx, build, cfg))
	})
	return res, err
}

// Stats reports cache effectiveness: hits are requests served by an
// existing or in-flight run, misses are actual simulations.
func (c *ResultCache) Stats() (hits, misses uint64) {
	hits, misses, _ = c.c.Stats()
	return hits, misses
}

// Evictions reports how many completed results the capacity bound dropped.
func (c *ResultCache) Evictions() uint64 {
	_, _, ev := c.c.Stats()
	return ev
}

// Len reports the number of cached (and in-flight) entries.
func (c *ResultCache) Len() int { return c.c.Len() }

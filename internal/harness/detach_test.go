package harness

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// Engine results are detached: statistics only, with no simulated machine
// behind them (see ResultCache). These tests pin that contract from both
// sides — what a detached result must still say, and what it must no
// longer hold.

// detachJobs builds a small mixed sweep at the golden ADORE parameters:
// per benchmark its policy-matrix row (a baseline, every fixed policy and
// the selector, whose ADORE columns form one fork group), plus one hooked
// job that bypasses the result cache.
func detachJobs(t *testing.T, hooked *int) []Job {
	t.Helper()
	cfg := GoldenExpConfig()
	cfg.Scale = 0.02
	policies := core.PrefetchPolicyNames()
	var jobs []Job
	for _, name := range []string{"mcf", "art"} {
		b, err := workloads.ByName(name, cfg.Scale)
		if err != nil {
			t.Fatal(err)
		}
		sp := benchSpec(b, cfg.Scale, compiler.O2)
		jobs = append(jobs, Job{Name: name + "/base", Compile: sp, Config: cfg.runConfig()})
		for _, col := range append(policies, PolicySelectorColumn) {
			rc := forkRunConfig(cfg.Core, col, false)
			jobs = append(jobs, Job{Name: name + "/" + col, Compile: sp, Config: rc})
		}
	}
	rc := forkRunConfig(cfg.Core, policies[0], false)
	rc.OnOptimize = func(*core.Trace, []core.DelinquentLoad, core.OptimizeResult) { *hooked++ }
	jobs = append(jobs, Job{Name: "mcf/hooked", Compile: jobs[0].Compile, Config: rc})
	return jobs
}

// checkDetached demands that got — an engine result — carries no machine
// and reports exactly what full, a direct RunContext of the same job,
// reports: CPU and controller statistics, every cache level's counters,
// the prefetch and hierarchy aggregates, and the same JSON bytes.
func checkDetached(t *testing.T, label string, full, got *RunResult) {
	t.Helper()
	if got.FinalMemory != nil || got.Arch != nil || got.Code != nil || got.Controller != nil {
		t.Errorf("%s: engine result holds its machine (memory %v, arch %v, code %v, controller %v)", label,
			got.FinalMemory != nil, got.Arch != nil, got.Code != nil, got.Controller != nil)
	}
	if full.FinalMemory == nil || full.Arch == nil || full.Code == nil {
		t.Fatalf("%s: direct RunContext result lost its machine", label)
	}
	if got.Mem == nil || got.Mem == full.Mem {
		t.Fatalf("%s: engine result has no private statistics-only hierarchy", label)
	}
	for _, c := range []*memsys.Cache{got.Mem.L1D, got.Mem.L1I, got.Mem.L2, got.Mem.L3} {
		if s := heldStorage(c); s != "" {
			t.Errorf("%s: %s level keeps line storage in %s", label, c.Config().Name, s)
		}
	}
	if s := heldStorage(got.Mem); s != "" {
		t.Errorf("%s: hierarchy keeps storage in %s", label, s)
	}

	if got.CPU != full.CPU {
		t.Errorf("%s: cpu stats diverged:\n engine %+v\n direct %+v", label, got.CPU, full.CPU)
	}
	if (got.Core == nil) != (full.Core == nil) || (got.Core != nil && *got.Core != *full.Core) {
		t.Errorf("%s: core stats diverged", label)
	}
	g := [4]memsys.CacheStats{got.Mem.L1D.Stats, got.Mem.L1I.Stats, got.Mem.L2.Stats, got.Mem.L3.Stats}
	f := [4]memsys.CacheStats{full.Mem.L1D.Stats, full.Mem.L1I.Stats, full.Mem.L2.Stats, full.Mem.L3.Stats}
	if g != f {
		t.Errorf("%s: cache stats diverged:\n engine %+v\n direct %+v", label, g, f)
	}
	if got.Mem.Prefetch() != full.Mem.Prefetch() {
		t.Errorf("%s: Prefetch() diverged", label)
	}
	if got.Mem.MemAccesses != full.Mem.MemAccesses || got.Mem.BusWaitCycles != full.Mem.BusWaitCycles ||
		got.Mem.MSHRWaitCycles != full.Mem.MSHRWaitCycles || got.Mem.DroppedPrefetches != full.Mem.DroppedPrefetches ||
		got.Mem.PrefetchesIssued != full.Mem.PrefetchesIssued {
		t.Errorf("%s: hierarchy aggregates diverged", label)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	fj, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if string(gj) != string(fj) {
		t.Errorf("%s: JSON of the detached result differs from the full result's", label)
	}
}

// heldStorage names the first non-nil slice or map field of the struct
// v points to, or returns "" when it holds none.
func heldStorage(v any) string {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch fv := rv.Field(i); fv.Kind() {
		case reflect.Slice, reflect.Map:
			if !fv.IsNil() {
				return rv.Type().Field(i).Name
			}
		}
	}
	return ""
}

// TestEngineResultsDetached runs one sweep through every engine entry
// point — RunJobs (result-cache misses, then hits), RunJob, and
// RunJobsForked (probes and continuations) — and checks each result
// against a direct RunContext of the same job.
func TestEngineResultsDetached(t *testing.T) {
	if testing.Short() {
		t.Skip("long: simulates the sweep three times")
	}
	ctx := context.Background()
	var hooked int
	jobs := detachJobs(t, &hooked)
	cache := NewBuildCache(0)
	direct := make([]*RunResult, len(jobs))
	for i, j := range jobs {
		build, err := cache.Build(j.Compile)
		if err != nil {
			t.Fatal(err)
		}
		if direct[i], err = RunContext(ctx, build, j.Config); err != nil {
			t.Fatal(err)
		}
	}

	e := NewEngine(EngineConfig{ResultCacheCap: 64})
	misses, err := e.RunJobs(ctx, "detach", jobs)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore, _ := e.Results().Stats()
	hits, err := e.RunJobs(ctx, "detach", jobs)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := e.Results().Stats(); h-hitsBefore != uint64(len(jobs)-1) {
		t.Fatalf("second sweep hit the result cache %d times, want %d (every job but the hooked one)", h-hitsBefore, len(jobs)-1)
	}
	single, err := NewEngine(EngineConfig{}).RunJob(ctx, "detach", jobs[1])
	if err != nil {
		t.Fatal(err)
	}
	forked, stats, err := NewEngine(EngineConfig{}).RunJobsForked(ctx, "detach", jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ForkedRuns == 0 {
		t.Fatal("no job resumed from a snapshot: the forked path went untested")
	}
	if hooked == 0 {
		t.Fatal("the hooked job never saw an optimization: the hooked path went untested")
	}

	for i, j := range jobs {
		checkDetached(t, "RunJobs miss "+j.Name, direct[i], misses[i])
		checkDetached(t, "RunJobs hit "+j.Name, direct[i], hits[i])
		checkDetached(t, "RunJobsForked "+j.Name, direct[i], forked[i])
	}
	checkDetached(t, "RunJob "+jobs[1].Name, direct[1], single)
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEngineRetainedHeap bounds what a long-lived engine keeps alive: the
// 17×6 policy matrix, straight and forked, through one engine whose
// result cache holds every run. Results that kept their machines would
// retain every run's simulated memory, code copy, trace pool and cache
// lines — about 800 MB here; detached, the engine and all 204 results fit
// in a few megabytes.
func TestEngineRetainedHeap(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("long: simulates the policy matrix twice")
	}
	const bound = 32 << 20
	cfg := GoldenExpConfig()
	cfg.Scale = 0.02
	_, _, jobs := policyMatrixJobs(cfg)
	ctx := context.Background()

	before := liveHeap()
	e := NewEngine(EngineConfig{ResultCacheCap: 1024})
	straight, err := e.RunJobs(ctx, "retained", jobs)
	if err != nil {
		t.Fatal(err)
	}
	forked, _, err := e.RunJobsForked(ctx, "retained", jobs)
	if err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	runtime.KeepAlive(e)
	runtime.KeepAlive(straight)
	runtime.KeepAlive(forked)
	if n := e.Results().Len(); n != len(jobs) {
		t.Fatalf("result cache holds %d entries, want all %d matrix runs", n, len(jobs))
	}
	t.Logf("engine + %d results retain %.1f MB", len(straight)+len(forked), float64(retained)/(1<<20))
	if retained > bound {
		t.Errorf("engine and its results retain %.1f MB of heap, bound %d MB", float64(retained)/(1<<20), bound>>20)
	}
}

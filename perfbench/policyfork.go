package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// policy-fork: the policy matrix (17 benchmarks × base, the registered
// prefetch policies and the selector) through
// harness.RunPolicyMatrixForkedContext at harness.GoldenExpConfig(), on a
// fresh engine of width nproc per rep so every rep starts with cold
// caches. The whole ADORE pipeline and the snapshot/restore engine work
// here. The matrix is fixed; the seed does not change it.

var policyGoldenPath = filepath.Join("internal", "harness", "testdata", "golden", "policy_matrix.json")

type policyFork struct {
	golden  *harness.PolicyGolden
	width   int
	speedup float64 // geomean paper-policy speedup over base, %
	fork    harness.ForkStats
	eng     engineTotals // traced reps' engine registries
	pfs     uint64       // prefetch sequences inserted, summed over traced matrix cells
}

func newPolicyFork() (*policyFork, error) {
	g, err := harness.LoadPolicyGolden(policyGoldenPath)
	if err != nil {
		return nil, err
	}
	if want := harness.GoldenExpConfig().Scale; g.Scale != want {
		return nil, fmt.Errorf("%s pinned at scale %g, sweep runs at %g", policyGoldenPath, g.Scale, want)
	}
	return &policyFork{golden: g, width: runtime.NumCPU()}, nil
}

// setup times a sweep's set-up: everything before its first simulation —
// the engine, the workloads, the job list and the fork groups. A sweep on
// an already-canceled context does exactly that and dispatches nothing.
func (p *policyFork) setup(ctx context.Context, tr *tracer) (time.Duration, error) {
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	t0 := time.Now()
	cfg := harness.GoldenExpConfig()
	cfg.Engine = harness.NewEngine(harness.EngineConfig{Parallelism: p.width, Metrics: metrics.NewRegistry()})
	_, _, err := harness.RunPolicyMatrixForkedContext(canceled, cfg)
	t1 := time.Now()
	if !errors.Is(err, context.Canceled) {
		return 0, fmt.Errorf("set-up sweep on a canceled context returned %v", err)
	}
	tr.record("setup/policy-fork", "setup", 0, t0, t1)
	return t1.Sub(t0), nil
}

func (p *policyFork) rep(ctx context.Context, tr *tracer, root int64, request string) (repOut, error) {
	var (
		out     repOut
		mu      sync.Mutex
		started = map[int]time.Time{}
	)
	reg := metrics.NewRegistry()
	start := time.Now()
	eng := harness.NewEngine(harness.EngineConfig{
		Parallelism: p.width,
		Metrics:     reg,
		OnProgress: func(pr harness.Progress) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			if !pr.Done {
				started[pr.Index] = now
				out.attempted++
				return
			}
			t0 := started[pr.Index]
			tr.record("harness.run", request, root, t0, now)
			out.opsMs = append(out.opsMs, float64(now.Sub(t0))/1e6)
			if pr.Err != nil {
				out.failed++
			}
		},
	})
	cfg := harness.GoldenExpConfig()
	cfg.Engine = eng
	m, fs, err := harness.RunPolicyMatrixForkedContext(ctx, cfg)
	out.wall = time.Since(start)
	if err != nil {
		if out.failed == 0 {
			out.failed = 1
		}
		out.problems = append(out.problems, fmt.Sprintf("policy matrix: %v", err))
		return out, nil
	}
	out.problems = append(out.problems, p.golden.Compare(m)...)
	out.insts = reg.Counter("adore_sim_instructions_total", "").Value()
	p.speedup = paperSpeedupPct(m)
	p.fork = *fs
	if tr != nil {
		p.eng.fold(reg, p.width, out.wall)
		for _, r := range m.Rows {
			for _, n := range r.Prefetches {
				p.pfs += uint64(n)
			}
		}
	}
	return out, nil
}

// paperSpeedupPct is the geometric mean over matrix rows of base cycles /
// paper-policy cycles, minus one, in percent.
func paperSpeedupPct(m *harness.PolicyMatrixResult) float64 {
	var logSum float64
	n := 0
	for _, r := range m.Rows {
		base, paper := r.Cycles[harness.PolicyBaseColumn], r.Cycles["paper"]
		if base == 0 || paper == 0 {
			continue
		}
		logSum += math.Log(float64(base) / float64(paper))
		n++
	}
	if n == 0 {
		return 0
	}
	return (math.Exp(logSum/float64(n)) - 1) * 100
}

func (p *policyFork) layers(reps int, spans []span) (map[string]float64, map[string]string) {
	m := p.eng.layers(reps)
	jobs := spanDurationsMs(spansNamed(spans, "harness.run"))
	m["harness.run_ms.p50"] = median(jobs)
	m["harness.run_ms.max"] = maxOf(jobs)
	m["harness.fork.groups"] = float64(p.fork.Groups)
	m["harness.fork.forked_runs"] = float64(p.fork.ForkedRuns)
	m["harness.fork.warmup_reduction"] = p.fork.WarmupReduction()
	m["core.prefetches"] = float64(p.pfs) / float64(reps)
	m["core.adore_speedup_pct"] = p.speedup
	absent := engineAbsent()
	markAbsent(absent, "compiles run inside the engine's build cache, out of the benchmark's reach", "compiler.build_ms")
	markAbsent(absent, "no HTTP service on policy-fork", serveLayerNames...)
	return m, absent
}

func (p *policyFork) report() []string {
	return []string{fmt.Sprintf("policy-fork: width %d; paper-policy geomean speedup %.4f%%; %d fork groups, %d forked runs, warmup reduction %.2fx",
		p.width, p.speedup, p.fork.Groups, p.fork.ForkedRuns, p.fork.WarmupReduction())}
}

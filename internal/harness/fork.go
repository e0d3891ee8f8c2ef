package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/pmu"
	"repro/internal/program"
)

// The checkpoint/fork execution engine (DESIGN.md §16). A policy sweep
// runs the same benchmark once per prefetch policy, but every ADORE run
// of one (workload, compile-options) pair executes an identical prefix:
// the pipeline's first policy-dependent decision happens only when a
// stable phase triggers trace optimization. The fork engine runs that
// shared prefix ONCE per group, snapshots the whole machine at the
// policy-divergence point, and resumes each remaining configuration from
// the snapshot — bit-identical to a straight run, because the simulator
// is deterministic and the snapshot captures every run-varying bit of
// state (CPU, memory, caches, MSHRs, PMU, controller, code image).

// ForkDivergence is the captureMin value asking RunForkProbeImage to
// keep re-capturing at every snapshot-worthy hook boundary and freeze
// only at the run's first policy-dependent decision — the fork engine's
// mode. A finite captureMin instead freezes the capture at the first
// eligible boundary at or after that cycle (the fuzzer's mode).
const ForkDivergence = ^uint64(0)

// ForkSnapshot is a frozen machine checkpoint: the complete run-varying
// state of the CPU, data memory, cache hierarchy, PMU, controller, and
// patched code image at one hook boundary. Snapshots are immutable once
// the probe run finishes; any number of continuations may resume from
// one concurrently (memory is forked copy-on-write, everything else is
// deep-copied per continuation by Restore).
type ForkSnapshot struct {
	// Cycle is the hook boundary the snapshot was captured at.
	Cycle uint64
	// Diverged reports that the capture was frozen by the probe run's
	// first policy-dependent decision (rather than by a captureMin
	// cycle): the snapshot precedes that decision, so a continuation
	// with a different prefetch policy or selector re-makes it under
	// its own configuration.
	Diverged bool

	cpu    *cpu.Snapshot
	code   *program.CodeSnapshot
	mem    *memsys.Memory // frozen fork; continuations Fork() it again
	hier   *memsys.HierarchySnapshot
	pmu    *pmu.Snapshot
	ctrl   *core.Snapshot
	series []SeriesPoint
}

// forkProbe captures ForkSnapshots while a probe run executes. Captures
// happen at hook boundaries — before the due hooks fire — and only at
// boundaries with profile windows pending (the only boundaries that can
// reach a policy decision) or past minCycle. The latest capture wins
// until the probe freezes: at the first policy-dependent decision
// (OnPolicyPoint), or at the first eligible boundary at/after minCycle.
type forkProbe struct {
	minCycle uint64
	snap     *ForkSnapshot
	frozen   bool
}

func (pr *forkProbe) arm(m *cpu.CPU, mem *memsys.Memory, code *program.CodeSpace,
	hier *memsys.Hierarchy, p *pmu.PMU, ctrl *core.Controller, res *RunResult) error {
	if ctrl == nil {
		return errors.New("fork probe requires an ADORE run")
	}
	m.OnHookBoundary(func(now uint64) {
		if pr.frozen {
			return
		}
		if ctrl.PendingWindows() == 0 && now < pr.minCycle {
			return
		}
		pr.snap = &ForkSnapshot{
			Cycle:  now,
			cpu:    m.Snapshot(),
			code:   code.Snapshot(),
			mem:    mem.Fork(),
			hier:   hier.Snapshot(),
			pmu:    p.Snapshot(),
			ctrl:   ctrl.Snapshot(),
			series: append([]SeriesPoint(nil), res.Series...),
		}
		if now >= pr.minCycle {
			pr.frozen = true
		}
	})
	ctrl.OnPolicyPoint = func(now uint64) {
		// In divergence mode the first policy decision freezes the
		// capture; a finite minCycle (the fuzzer's mode, same-config
		// resume) keeps capturing — snapshots past the divergence are
		// valid when the continuation's configuration is the probe's.
		if pr.frozen || pr.minCycle != ForkDivergence {
			return
		}
		pr.frozen = true
		// The decision fires from a poll hook, after this boundary's
		// capture (pending windows make the boundary eligible), so the
		// frozen snapshot sits exactly at the diverging boundary.
		if pr.snap != nil {
			pr.snap.Diverged = true
		}
	}
	return nil
}

// restore rewinds a freshly assembled machine to the snapshot. Order
// matters: the code image first (re-applying the probe's patches through
// the change hooks keeps the predecode coherent), then CPU, hierarchy,
// PMU, and controller — the PMU after the controller's Attach has
// Start()ed it, the controller last so its restored pending windows are
// what the re-entered poll hook consumes. The machine's first step
// re-enters the same hook boundary and re-makes the pending policy
// decision under ITS OWN policy closures — that is the fork.
func (snap *ForkSnapshot) restore(m *cpu.CPU, code *program.CodeSpace,
	hier *memsys.Hierarchy, p *pmu.PMU, ctrl *core.Controller, res *RunResult) error {
	if ctrl == nil {
		return errors.New("fork resume requires an ADORE run")
	}
	if err := code.Restore(snap.code); err != nil {
		return err
	}
	if err := m.Restore(snap.cpu); err != nil {
		return err
	}
	if err := hier.Restore(snap.hier); err != nil {
		return err
	}
	if err := p.Restore(snap.pmu); err != nil {
		return err
	}
	if err := ctrl.Restore(snap.ctrl); err != nil {
		return err
	}
	res.Series = append(res.Series, snap.series...)
	return nil
}

// RunForkProbeImage runs img under cfg to completion — the returned
// RunResult is a normal, full run — while capturing a ForkSnapshot. With
// captureMin == ForkDivergence the snapshot freezes at the run's first
// policy-dependent decision; a finite captureMin freezes it at the first
// snapshot-worthy hook boundary at or after that cycle. A nil snapshot
// (with a nil error) means no eligible boundary was reached — e.g. the
// run never grew a stable phase; callers fall back to straight runs.
func RunForkProbeImage(ctx context.Context, img *program.Image, cfg RunConfig, captureMin uint64) (*RunResult, *ForkSnapshot, error) {
	pr := &forkProbe{minCycle: captureMin}
	res, err := runImage(ctx, img, cfg, pr, nil)
	if err != nil {
		return nil, nil, err
	}
	return res, pr.snap, nil
}

// RunForkedImage resumes img from snap under cfg, simulating only the
// continuation. cfg must assemble a machine structurally identical to
// the probe's (same CPU/hierarchy/sampling configuration, same hooks) —
// the restore validates this — but its prefetch policy and selector may
// differ when the snapshot was taken at the divergence point.
func RunForkedImage(ctx context.Context, img *program.Image, cfg RunConfig, snap *ForkSnapshot) (*RunResult, error) {
	return runImage(ctx, img, cfg, nil, snap)
}

// forkPrefixFingerprint fingerprints everything of a RunConfig that
// shapes the shared prefix of an ADORE run — i.e. the full fingerprint
// with the policy-divergent fields (prefetch policy, selector)
// neutralized. Jobs with equal compile keys and equal prefix
// fingerprints execute identical simulations up to the first policy
// decision, which is the fork engine's grouping invariant.
func forkPrefixFingerprint(cfg RunConfig) string {
	cfg.Core.Policy = ""
	cfg.Core.Selector = false
	return cfg.Fingerprint()
}

// forkable reports whether a job can join a fork group: an ADORE run
// with no observation hook (hooked runs see every optimization attempt,
// including the probe's) and no sampling-only modes.
func forkable(cfg RunConfig) bool {
	return cfg.ADORE && cfg.OnOptimize == nil && !cfg.SampleOnly && !cfg.CaptureDear
}

// ForkStats summarizes one forked sweep's warmup sharing.
type ForkStats struct {
	// Groups is the number of fork groups that captured a usable
	// snapshot; ForkedRuns the continuations resumed from one;
	// StraightRuns everything else (probes, baselines, un-forkable
	// jobs, and fallbacks for groups that never reached a snapshot).
	Groups       int
	ForkedRuns   int
	StraightRuns int

	// WarmupStraight is the total simulated warmup a non-forked sweep
	// spends on the grouped jobs (members × fork-point cycles, summed
	// over groups); WarmupForked is what the forked sweep simulated for
	// the same work (each group's fork-point cycles once).
	WarmupStraight uint64
	WarmupForked   uint64
}

// WarmupReduction is the sweep's warmup-cycle reduction factor
// (straight / forked); 1.0 when nothing forked.
func (s *ForkStats) WarmupReduction() float64 {
	if s.WarmupForked == 0 {
		return 1
	}
	return float64(s.WarmupStraight) / float64(s.WarmupForked)
}

// RunJobsForked is RunJobs with checkpoint/fork scheduling: jobs whose
// configurations differ only in prefetch policy/selector (and share a
// compile) form fork groups. Each group's first member runs as the
// probe — a full run that also captures the divergence-point snapshot —
// and the rest resume from the snapshot, skipping the shared warmup.
// Results are bit-identical to RunJobs and, like them, detached. Every
// job runs on the worker pool; a continuation becomes runnable when its
// probe finishes and is preferred over jobs not yet started.
// Continuations bypass the result cache (their results are still
// hermetic, but the probe path must run to produce the snapshot). A
// group's snapshot is released as soon as its last continuation
// finishes, not when the whole sweep returns.
func (e *Engine) RunJobsForked(ctx context.Context, sweep string, jobs []Job) ([]*RunResult, *ForkStats, error) {
	type group struct {
		members []int // job indices; members[0] is the probe
		// snap is the probe's snapshot (nil when no boundary was
		// eligible), dropped by the continuation that brings pending to
		// zero; every continuation reads it before its own decrement.
		snap     *ForkSnapshot
		pending  atomic.Int64
		captured bool   // the probe produced a snapshot
		cycle    uint64 // its Cycle, kept for the stats past the release
	}
	groups := map[string]*group{}
	var order []string
	for i := range jobs {
		if !forkable(jobs[i].Config) {
			continue
		}
		key := jobs[i].Compile.Key() + "|" + forkPrefixFingerprint(jobs[i].Config)
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.members = append(g.members, i)
	}
	probeOf := make(map[int]*group)
	contOf := make(map[int]*group)
	for _, key := range order {
		g := groups[key]
		if len(g.members) < 2 {
			continue // a lone policy shares nothing; run it straight
		}
		probeOf[g.members[0]] = g
		for _, i := range g.members[1:] {
			contOf[i] = g
		}
		g.pending.Store(int64(len(g.members) - 1))
	}

	out := make([]*RunResult, len(jobs))
	fresh := make(chan int, len(jobs))     // probes and un-grouped jobs
	resumable := make(chan int, len(jobs)) // continuations whose probe finished
	sweepStart := time.Now()
	runOne := func(ctx context.Context, i int) error {
		return e.runJob(ctx, sweep, jobs, i, sweepStart, out, func(ctx context.Context, j *Job, build *compiler.BuildResult) (*RunResult, error) {
			if g := probeOf[i]; g != nil {
				res, snap, err := RunForkProbeImage(ctx, build.Image, j.Config, ForkDivergence)
				if snap != nil {
					g.snap, g.captured, g.cycle = snap, true, snap.Cycle
				}
				if err == nil {
					for _, c := range g.members[1:] {
						resumable <- c
					}
				}
				return detach(res, err)
			}
			if g := contOf[i]; g != nil {
				snap := g.snap
				defer func() {
					if g.pending.Add(-1) == 0 {
						g.snap = nil
					}
				}()
				if snap != nil {
					return detach(RunForkedImage(ctx, build.Image, j.Config, snap))
				}
			}
			return e.runStraight(ctx, j, build)
		})
	}

	// Probes and un-grouped jobs are queued up front. A finished probe
	// queues its group's continuations, and a free worker takes a queued
	// continuation before the next up-front job, so continuations run
	// right behind their probe and about one snapshot per worker is alive
	// at a time.
	for i := range jobs {
		if contOf[i] == nil {
			fresh <- i
		}
	}
	if err := e.Map(ctx, len(jobs), func(ctx context.Context, _ int) error {
		var i int
		select {
		case i = <-resumable:
		default:
			select {
			case i = <-resumable:
			case i = <-fresh:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return runOne(ctx, i)
	}); err != nil {
		return nil, nil, err
	}

	stats := &ForkStats{StraightRuns: len(jobs)}
	for _, key := range order {
		g := groups[key]
		if !g.captured {
			continue
		}
		stats.Groups++
		stats.ForkedRuns += len(g.members) - 1
		stats.StraightRuns -= len(g.members) - 1
		stats.WarmupForked += g.cycle
		stats.WarmupStraight += uint64(len(g.members)) * g.cycle
	}
	return out, stats, nil
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// sim-base: every benchmark × {O2, O3} with ADORE off. Images are
// compiled in set-up; each rep runs all of them one harness.RunContext at
// a time, in an order shuffled from the seed. Only the simulator
// substrate (cpu, memsys) works here.

// goldenCorpusPath is the paper-figure golden corpus, relative to the
// repository root the benchmark runs from.
var goldenCorpusPath = filepath.Join("internal", "harness", "testdata", "golden", "corpus.json")

type simJob struct {
	name   string
	build  *compiler.BuildResult
	golden uint64 // golden-corpus base cycles; 0 when absent
}

type simBase struct {
	rng    *rand.Rand
	scale  float64
	tol    float64
	want   map[string]uint64 // golden-corpus base cycles by name/level
	jobs   []simJob
	digest string // stats digest of the first rep; every rep must match
	acc    simAcc
}

// simAcc sums the traced reps' simulated statistics.
type simAcc struct {
	retired, cycles, loadStall, sampleCharge      uint64
	l1dAcc, l1dMiss, l2Acc, l2Miss, l3Acc, l3Miss uint64
	memAccesses, busWait, mshrWait                uint64
	pfIssued, pfUseful, pfLate, pfUnused, pfDrop  uint64
}

func newSimBase(seed int64) (*simBase, error) {
	golden, err := harness.LoadGolden(goldenCorpusPath)
	if err != nil {
		return nil, err
	}
	// Run at the corpus scale so base cycles can be checked against it.
	s := &simBase{rng: rand.New(rand.NewSource(seed)), scale: golden.Scale, tol: golden.Tol.RelCycles, want: map[string]uint64{}}
	for _, r := range golden.Fig7O2 {
		s.want[r.Name+"/O2"] = r.Base
	}
	for _, r := range golden.Fig7O3 {
		s.want[r.Name+"/O3"] = r.Base
	}
	return s, nil
}

// setup compiles every image.
func (s *simBase) setup(ctx context.Context, tr *tracer) (time.Duration, error) {
	root := tr.open("setup/sim-base", "setup", 0)
	start := time.Now()
	var jobs []simJob
	for _, b := range workloads.All(s.scale) {
		for _, level := range []compiler.OptLevel{compiler.O2, compiler.O3} {
			opts := compiler.DefaultOptions()
			opts.Level = level
			t0 := time.Now()
			build, err := compiler.Build(b.Kernel, opts)
			if err != nil {
				return 0, fmt.Errorf("compile %s/%v: %w", b.Name, level, err)
			}
			tr.record("compiler.build", "setup", root, t0, time.Now())
			name := b.Name + "/" + level.String()
			jobs = append(jobs, simJob{name: name, build: build, golden: s.want[name]})
		}
	}
	d := time.Since(start)
	tr.close(root)
	s.jobs = jobs
	return d, nil
}

func (s *simBase) rep(ctx context.Context, tr *tracer, root int64, request string) (repOut, error) {
	var out repOut
	order := s.rng.Perm(len(s.jobs))
	stats := make([]string, len(s.jobs))
	start := time.Now()
	for _, i := range order {
		j := s.jobs[i]
		t0 := time.Now()
		res, err := harness.RunContext(ctx, j.build, harness.DefaultRunConfig())
		t1 := time.Now()
		tr.record("harness.run", request, root, t0, t1)
		out.attempted++
		out.opsMs = append(out.opsMs, float64(t1.Sub(t0))/1e6)
		if err != nil {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s: %v", j.name, err))
			continue
		}
		out.insts += res.CPU.Retired
		if j.golden != 0 && !withinRel(res.CPU.Cycles, j.golden, s.tol) {
			out.problems = append(out.problems, fmt.Sprintf("%s: base cycles %d, golden corpus %d (±%g rel)",
				j.name, res.CPU.Cycles, j.golden, s.tol))
		}
		if j.golden == 0 {
			out.problems = append(out.problems, fmt.Sprintf("%s: not in the golden corpus", j.name))
		}
		h := res.Mem
		stats[i] = fmt.Sprintf("%s %+v %+v %+v %+v %+v %d %d %d %d %d", j.name, res.CPU,
			h.L1D.Stats, h.L1I.Stats, h.L2.Stats, h.L3.Stats,
			h.MemAccesses, h.BusWaitCycles, h.MSHRWaitCycles, h.PrefetchesIssued, h.DroppedPrefetches)
		if tr != nil {
			a := &s.acc
			a.retired += res.CPU.Retired
			a.cycles += res.CPU.Cycles
			a.loadStall += res.CPU.LoadStalls
			a.sampleCharge += res.CPU.SampleCharges
			a.l1dAcc += h.L1D.Stats.Accesses
			a.l1dMiss += h.L1D.Stats.Misses
			a.l2Acc += h.L2.Stats.Accesses
			a.l2Miss += h.L2.Stats.Misses
			a.l3Acc += h.L3.Stats.Accesses
			a.l3Miss += h.L3.Stats.Misses
			a.memAccesses += h.MemAccesses
			a.busWait += h.BusWaitCycles
			a.mshrWait += h.MSHRWaitCycles
			pf := h.Prefetch()
			a.pfIssued += pf.Issued
			a.pfUseful += pf.Useful
			a.pfLate += pf.Late
			a.pfUnused += pf.EvictedUnused
			a.pfDrop += h.DroppedPrefetches
		}
	}
	out.wall = time.Since(start)
	if out.failed == 0 {
		sum := sha256.New()
		for _, line := range stats {
			fmt.Fprintln(sum, line)
		}
		d := hex.EncodeToString(sum.Sum(nil))
		if s.digest == "" {
			s.digest = d
		} else if d != s.digest {
			out.problems = append(out.problems, fmt.Sprintf("stats digest %s differs from the first rep's %s", d, s.digest))
		}
	}
	return out, nil
}

func (s *simBase) layers(reps int, spans []span) (map[string]float64, map[string]string) {
	a, n := s.acc, float64(reps)
	per := func(v uint64) float64 { return float64(v) / n }
	runs := spanDurationsMs(spansNamed(spans, "harness.run"))
	var runNs float64
	for _, ms := range runs {
		runNs += ms * 1e6
	}
	m := map[string]float64{
		"compiler.build_ms":            median(spanDurationsMs(spansNamed(spans, "compiler.build"))),
		"harness.run_ms.p50":           median(runs),
		"harness.run_ms.max":           maxOf(runs),
		"cpu.retired":                  per(a.retired),
		"cpu.cycles":                   per(a.cycles),
		"cpu.load_stall_cycles":        per(a.loadStall),
		"cpu.sample_charge_cycles":     per(a.sampleCharge),
		"cpu.host_ns_per_inst":         runNs / float64(a.retired),
		"memsys.l1d.miss_ratio":        ratio(a.l1dMiss, a.l1dAcc),
		"memsys.l2.miss_ratio":         ratio(a.l2Miss, a.l2Acc),
		"memsys.l3.miss_ratio":         ratio(a.l3Miss, a.l3Acc),
		"memsys.mem_accesses":          per(a.memAccesses),
		"memsys.bus_wait_cycles":       per(a.busWait),
		"memsys.mshr_wait_cycles":      per(a.mshrWait),
		"memsys.prefetch.issued":       per(a.pfIssued),
		"memsys.prefetch.useful_ratio": ratio(a.pfUseful, a.pfUseful+a.pfLate+a.pfUnused),
		"memsys.prefetch.late_ratio":   ratio(a.pfLate, a.pfUseful+a.pfLate+a.pfUnused),
		"memsys.prefetch.dropped":      per(a.pfDrop),
	}
	absent := map[string]string{}
	markAbsent(absent, "ADORE is off on sim-base: no controller runs",
		"core.windows_observed", "core.phases_detected", "core.traces_selected", "core.traces_patched",
		"core.prefetches", "core.verify_rejects", "core.policy_switches", "core.adore_speedup_pct")
	markAbsent(absent, "sim-base calls harness.RunContext directly: no engine, caches or fork groups",
		"harness.queue_wait_ms", "harness.worker_busy_ratio", "harness.build_cache.hit_ratio",
		"harness.result_cache.hit_ratio", "harness.fork.groups", "harness.fork.forked_runs",
		"harness.fork.warmup_reduction")
	markAbsent(absent, "no HTTP service on sim-base", serveLayerNames...)
	return m, absent
}

func (s *simBase) report() []string {
	return []string{fmt.Sprintf("sim-base: %d images at scale %g; stats digest %s (equal across reps)",
		len(s.jobs), s.scale, s.digest)}
}

// withinRel reports whether got is within tol of want, relatively.
func withinRel(got, want uint64, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	d := float64(got) - float64(want)
	if d < 0 {
		d = -d
	}
	return d/float64(want) <= tol
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// Command perfbench is the repository's benchmark: it drives the
// simulator, the experiment engine and the HTTP service through their
// public entry points, checks every output, and prints end-to-end
// metrics (or, with -trace 1, per-layer metrics) as one JSON line.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload sim-base|policy-fork|serve-zipf --seed N --seconds S --trace 0|1
//
// The last line of standard output is
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
//
// Earlier lines are a human-readable report: latency tails with their
// percentile and sample count, stats digests, and the per-layer metrics a
// workload cannot measure, with the reason. A traced run also writes its spans and
// its layer-bucketed CPU profile under .bench_build/trace/.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_mips", "MIPS"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by a traced run.
// Counts and times are per unit of work (one rep).
var perLayer = []metricDef{
	{"cpu.self_s", "s"},
	{"memsys.self_s", "s"},
	{"pmu.self_s", "s"},
	{"core.self_s", "s"},
	{"harness.self_s", "s"},
	{"compiler.self_s", "s"},
	{"serve.self_s", "s"},
	{"transport.self_s", "s"},
	{"runtime.self_s", "s"},
	{"other.self_s", "s"},
	{"fork.snapshot_restore.self_s", "s"},
	{"compiler.build_ms", "ms"},
	{"harness.run_ms.p50", "ms"},
	{"harness.run_ms.max", "ms"},
	{"serve.request_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.outside_handler_ms", "ms"},
	{"harness.queue_wait_ms", "ms"},
	{"harness.worker_busy_ratio", "ratio"},
	{"harness.build_cache.hit_ratio", "ratio"},
	{"harness.result_cache.hit_ratio", "ratio"},
	{"harness.fork.groups", "count"},
	{"harness.fork.forked_runs", "count"},
	{"harness.fork.warmup_reduction", "x"},
	{"cpu.retired", "count"},
	{"cpu.cycles", "count"},
	{"cpu.load_stall_cycles", "count"},
	{"cpu.sample_charge_cycles", "count"},
	{"cpu.host_ns_per_inst", "ns"},
	{"memsys.l1d.miss_ratio", "ratio"},
	{"memsys.l2.miss_ratio", "ratio"},
	{"memsys.l3.miss_ratio", "ratio"},
	{"memsys.mem_accesses", "count"},
	{"memsys.bus_wait_cycles", "count"},
	{"memsys.mshr_wait_cycles", "count"},
	{"memsys.prefetch.issued", "count"},
	{"memsys.prefetch.useful_ratio", "ratio"},
	{"memsys.prefetch.late_ratio", "ratio"},
	{"memsys.prefetch.dropped", "count"},
	{"core.windows_observed", "count"},
	{"core.phases_detected", "count"},
	{"core.traces_selected", "count"},
	{"core.traces_patched", "count"},
	{"core.prefetches", "count"},
	{"core.verify_rejects", "count"},
	{"core.policy_switches", "count"},
	{"core.adore_speedup_pct", "%"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.cache.evictions", "count"},
	{"serve.rps", "1/s"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_tail_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_tail_ms", "ms"},
	{"ops.p50_ms", "ms"},
	{"ops.tail_ms", "ms"},
	{"ops.tail_percentile", "percentile"},
	{"ops.tail_samples", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_count", "count"},
	{"trace.overhead_pct", "%"},
}

// hostLayers are the buckets of the CPU profile, reported as <layer>.self_s.
var hostLayers = []string{"cpu", "memsys", "pmu", "core", "harness", "compiler", "serve", "transport", "runtime", "other"}

// repOut is what one unit of work (a rep) produced.
type repOut struct {
	wall      time.Duration
	insts     uint64    // retired instructions in the results returned
	opsMs     []float64 // latency of each operation, as its caller saw it
	attempted int
	failed    int
	problems  []string // output checks that failed
	warmUp    bool     // checked and counted, but not timed
}

// workload is one named set of inputs the benchmark runs.
type workload interface {
	// setup sets up what the reps need once and returns the time that
	// took. It runs setupReps times; setup_s is the median.
	setup(ctx context.Context, tr *tracer) (time.Duration, error)
	// rep runs one unit of work. tr is nil with tracing off; root is the
	// rep's root span, which the workload's spans hang under.
	rep(ctx context.Context, tr *tracer, root int64, request string) (repOut, error)
	// layers reports the per-layer metrics gathered over the traced reps
	// (per rep), and why any it cannot measure are absent.
	layers(reps int, spans []span) (map[string]float64, map[string]string)
	// report returns lines for the human-readable report.
	report() []string
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "sim-base":
		return newSimBase(seed)
	case "policy-fork":
		return newPolicyFork()
	case "serve-zipf":
		return newServeZipf(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sim-base, policy-fork or serve-zipf)", name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// minReps is the fewest reps a measured phase runs, whatever the budget.
const minReps = 3

// traceDir, under the checkout's build directory, receives a traced run's
// spans and profile.
var traceDir = filepath.Join(".bench_build", "trace")

// setupReps is how many times a workload sets up, each from a collected
// heap; the first, cold one pays one-off process costs, and the median of
// all is reported.
const setupReps = 50

func main() {
	name := flag.String("workload", "", "workload to run: sim-base, policy-fork or serve-zipf")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	budget := time.Duration(seconds * float64(time.Second))
	fmt.Printf("perfbench: workload %s seed %d budget %v trace %v (nproc %d, GOMAXPROCS %d, %s)\n",
		name, seed, budget, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	// A traced run traces set-up too; its reps start untraced.
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		d, err := w.setup(ctx, tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
	}

	var all []repOut
	// Every rep starts from a collected heap, as a Go benchmark does, so
	// the previous rep's garbage does not pace this rep's GC; the
	// collection happens before any timing or profiling starts.
	doRep := func(tr *tracer) (repOut, error) {
		reqID := "rep-" + strconv.Itoa(len(all)+1)
		root := tr.open("workload/"+name, reqID, 0)
		out, err := w.rep(ctx, tr, root, reqID)
		if tr != nil {
			// The root span is the rep's wall time.
			out.wall = tr.close(root)
		}
		return out, err
	}
	// One warm-up rep grows the heap and faults in memory, costs a process
	// pays once; its outputs are checked like any other rep's.
	runtime.GC()
	warm, err := doRep(nil)
	if err != nil {
		return err
	}
	warm.warmUp = true
	all = append(all, warm)
	deadline := time.Now().Add(budget)

	if !traced {
		for n := 0; n < minReps || time.Now().Before(deadline); n++ {
			runtime.GC()
			out, err := doRep(nil)
			if err != nil {
				return err
			}
			all = append(all, out)
		}
		return finish(name, w, setups, all, nil, nil)
	}

	// Traced run: untraced and traced reps alternate, so the two sets see
	// the same warm-up and host conditions and their wall times give the
	// tracing overhead. Traced reps record spans and a CPU profile.
	var (
		untracedWs, tracedWs []float64
		untracedOps          []float64
		lp                   = &layerProfile{Seconds: map[string]float64{}}
		rt                   runtimeCounters
	)
	for n := 0; n < 2*minReps || time.Now().Before(deadline); n++ {
		runtime.GC()
		if n%2 == 0 {
			out, err := doRep(nil)
			if err != nil {
				return err
			}
			all = append(all, out)
			untracedWs = append(untracedWs, out.wall.Seconds())
			untracedOps = append(untracedOps, out.opsMs...)
			continue
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		rt0 := readRuntime()
		out, err := doRep(tr)
		pprof.StopCPUProfile()
		rt1 := readRuntime()
		if err != nil {
			return err
		}
		all = append(all, out)
		tracedWs = append(tracedWs, out.wall.Seconds())
		rt.allocBytes += rt1.allocBytes - rt0.allocBytes
		rt.gcCycles += rt1.gcCycles - rt0.gcCycles
		p, err := bucketProfile(prof.Bytes())
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		lp.merge(p)
	}
	spans := tr.snapshot()
	layers, absent := w.layers(len(tracedWs), spans)
	n := float64(len(tracedWs))
	for _, l := range hostLayers {
		layers[l+".self_s"] = lp.Seconds[l] / n
	}
	layers["fork.snapshot_restore.self_s"] = lp.ForkSeconds / n
	layers["runtime.alloc_mb"] = float64(rt.allocBytes) / (1 << 20) / n
	layers["runtime.gc_count"] = float64(rt.gcCycles) / n
	layers["trace.overhead_pct"] = (median(tracedWs)/median(untracedWs) - 1) * 100
	// Operation latency is a per-layer number, taken from the untraced
	// reps: its median and tail are order statistics over a fixed mix of
	// unequal operations and repeat too loosely between runs to gate on.
	layers["ops.p50_ms"] = median(untracedOps)
	if t, ok := tailOf(untracedOps); ok {
		layers["ops.tail_ms"], layers["ops.tail_percentile"], layers["ops.tail_samples"] = t.Value, t.P, float64(t.N)
	} else {
		markAbsent(absent, fmt.Sprintf("%d untraced operations: too few for a tail", len(untracedOps)),
			"ops.tail_ms", "ops.tail_percentile", "ops.tail_samples")
	}
	if err := writeTrace(traceDir, name, spans, lp, layers, absent); err != nil {
		return err
	}
	return finish(name, w, setups, all, layers, absent)
}

// finish prints the report and the result line.
func finish(name string, w workload, setups []time.Duration, reps []repOut, layers map[string]float64, absent map[string]string) error {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var walls, ops, setupS, mips []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			res.Correct = false
			fmt.Println("CHECK FAILED:", p)
		}
		if r.warmUp {
			continue
		}
		walls = append(walls, r.wall.Seconds())
		ops = append(ops, r.opsMs...)
		mips = append(mips, float64(r.insts)/r.wall.Seconds()/1e6)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	for _, line := range w.report() {
		fmt.Println(line)
	}
	fmt.Printf("reps %d (after 1 warm-up), operations %d", len(walls), len(ops))
	if t, ok := tailOf(ops); ok {
		fmt.Printf("; latency p50 %.4f ms, p%g %.4f ms (%d beyond)", median(ops), t.P, t.Value, t.Beyond)
	}
	fmt.Println()
	fmt.Printf("rep walls (s):")
	for _, w := range walls {
		fmt.Printf(" %.4f", w)
	}
	fmt.Println()

	if layers == nil {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		e2e := map[string]float64{
			"setup_s":     median(setupS),
			"wall_s":      median(walls),
			"sim_mips":    median(mips),
			"peak_rss_mb": rss,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range perLayer {
			v, ok := layers[m.name]
			if !ok {
				reason := absent[m.name]
				if reason == "" {
					reason = "not measured on this workload"
				}
				fmt.Printf("absent on %s: %s (%s); reported as 0\n", name, m.name, reason)
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// writeTrace writes a traced run's spans and bucketed profile.
func writeTrace(dir, name string, spans []span, lp *layerProfile, layers map[string]float64, absent map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Summary  []spanSummary      `json:"span_summary"`
		Profile  *layerProfile      `json:"profile"`
		Layers   map[string]float64 `json:"per_layer"`
		Absent   map[string]string  `json:"absent"`
		Spans    []span             `json:"spans"`
	}{name, summarizeSpans(spans), lp, layers, absent, spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name+".json")
	fmt.Println("trace written to", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

package main

import (
	"time"

	"repro/internal/metrics"
)

// policy-fork and serve-zipf run their simulations on a harness.Engine
// whose metric registry folds every finished run; their per-layer
// numbers for the engine, cpu, memsys and core layers come from it.

// engineCounters are the registry counters read after each traced rep.
var engineCounters = []string{
	"adore_engine_worker_busy_ns_total",
	"adore_engine_build_cache_hits_total", "adore_engine_build_cache_misses_total",
	"adore_engine_result_cache_hits_total", "adore_engine_result_cache_misses_total",
	"adore_sim_instructions_total", "adore_sim_cycles_total", "adore_sim_load_stall_cycles_total",
	"adore_mem_prefetch_issued_total", "adore_mem_prefetch_useful_total",
	"adore_mem_prefetch_late_total", "adore_mem_prefetch_unused_total",
	"adore_core_windows_observed_total", "adore_core_phases_detected_total",
	"adore_core_traces_selected_total", "adore_core_patches_installed_total",
	"adore_core_verify_rejects_total", "adore_core_policy_switches_total",
}

// engineTotals sums one engine registry per traced rep.
type engineTotals struct {
	c               map[string]uint64
	queueNs, queueN uint64
	busyCapNs       float64 // workers × wall, summed over reps
}

// fold adds a traced rep's registry, whose engine had the given width
// and ran for wall.
func (t *engineTotals) fold(reg *metrics.Registry, width int, wall time.Duration) {
	if t.c == nil {
		t.c = map[string]uint64{}
	}
	for _, name := range engineCounters {
		t.c[name] += reg.Counter(name, "").Value()
	}
	q := reg.Histogram("adore_engine_queue_wait_ns", "")
	t.queueNs += q.Sum()
	t.queueN += q.Count()
	t.busyCapNs += float64(width) * float64(wall)
}

// layers returns the per-layer metrics the registries give, per rep.
func (t *engineTotals) layers(reps int) map[string]float64 {
	c, n := t.c, float64(reps)
	per := func(name string) float64 { return float64(c[name]) / n }
	hitRatio := func(prefix string) float64 {
		return ratio(c[prefix+"_hits_total"], c[prefix+"_hits_total"]+c[prefix+"_misses_total"])
	}
	pfUseful, pfLate, pfUnused := c["adore_mem_prefetch_useful_total"], c["adore_mem_prefetch_late_total"], c["adore_mem_prefetch_unused_total"]
	return map[string]float64{
		"harness.queue_wait_ms":          float64(t.queueNs) / float64(max(t.queueN, 1)) / 1e6,
		"harness.worker_busy_ratio":      float64(c["adore_engine_worker_busy_ns_total"]) / t.busyCapNs,
		"harness.build_cache.hit_ratio":  hitRatio("adore_engine_build_cache"),
		"harness.result_cache.hit_ratio": hitRatio("adore_engine_result_cache"),
		"cpu.retired":                    per("adore_sim_instructions_total"),
		"cpu.cycles":                     per("adore_sim_cycles_total"),
		"cpu.load_stall_cycles":          per("adore_sim_load_stall_cycles_total"),
		"cpu.host_ns_per_inst":           ratio(c["adore_engine_worker_busy_ns_total"], c["adore_sim_instructions_total"]),
		"memsys.prefetch.issued":         per("adore_mem_prefetch_issued_total"),
		"memsys.prefetch.useful_ratio":   ratio(pfUseful, pfUseful+pfLate+pfUnused),
		"memsys.prefetch.late_ratio":     ratio(pfLate, pfUseful+pfLate+pfUnused),
		"core.windows_observed":          per("adore_core_windows_observed_total"),
		"core.phases_detected":           per("adore_core_phases_detected_total"),
		"core.traces_selected":           per("adore_core_traces_selected_total"),
		"core.traces_patched":            per("adore_core_patches_installed_total"),
		"core.verify_rejects":            per("adore_core_verify_rejects_total"),
		"core.policy_switches":           per("adore_core_policy_switches_total"),
	}
}

// engineAbsent names the per-layer metrics an engine registry cannot
// give, with the reason.
func engineAbsent() map[string]string {
	absent := map[string]string{}
	markAbsent(absent, "the engine folds misses but not accesses per level",
		"memsys.l1d.miss_ratio", "memsys.l2.miss_ratio", "memsys.l3.miss_ratio")
	markAbsent(absent, "not folded by the engine; measured on sim-base",
		"memsys.mem_accesses", "memsys.bus_wait_cycles", "memsys.mshr_wait_cycles", "memsys.prefetch.dropped")
	markAbsent(absent, "the engine folds no sample-charge counter", "cpu.sample_charge_cycles")
	return absent
}

// serveLayerNames are the per-layer metrics only an HTTP service gives.
var serveLayerNames = []string{"serve.request_ms", "serve.handler_ms", "serve.outside_handler_ms",
	"serve.cache.hit_ratio", "serve.cache.evictions", "serve.rps",
	"serve.hit_p50_ms", "serve.hit_tail_ms", "serve.miss_p50_ms", "serve.miss_tail_ms"}

// markAbsent records one reason for several absent metrics.
func markAbsent(absent map[string]string, reason string, names ...string) {
	for _, n := range names {
		absent[n] = reason
	}
}

package main

import "runtime/metrics"

// runtimeCounters are the Go runtime's cumulative allocation and GC
// counters; per-layer metrics report their deltas over the traced reps.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[1].Value.Uint64()
	}
	return c
}

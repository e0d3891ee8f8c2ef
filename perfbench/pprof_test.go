package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/cpu.(*CPU).executeBundle":    "repro/internal/cpu",
		"repro/internal/harness.(*Engine).Map.func1": "repro/internal/harness",
		"net/http.(*conn).serve":                     "net/http",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/syscall.Syscall6":          "internal/runtime/syscall",
		"main.main":                                  "main",
		"encoding/json.(*decodeState).object":        "encoding/json",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOfPackage(t *testing.T) {
	cases := map[string]string{
		"repro/internal/cpu":       "cpu",
		"repro/internal/isa":       "cpu",
		"repro/internal/program":   "cpu",
		"repro/internal/memsys":    "memsys",
		"repro/internal/pmu":       "pmu",
		"repro/internal/core":      "core",
		"repro/internal/verify":    "core",
		"repro/internal/analysis":  "core",
		"repro/internal/harness":   "harness",
		"repro/internal/compiler":  "compiler",
		"repro/internal/workloads": "compiler",
		"repro/internal/serve":     "serve",
		"repro/internal/metrics":   "other",
		"net/http":                 "transport",
		"net":                      "transport",
		"encoding/json":            "transport",
		"crypto/sha256":            "transport",
		"internal/poll":            "transport",
		"runtime":                  "runtime",
		"internal/runtime/maps":    "runtime",
		"sync":                     "runtime",
		"main":                     "other",
		"sort":                     "other",
	}
	for pkg, want := range cases {
		if got := layerOfPackage(pkg); got != want {
			t.Errorf("layerOfPackage(%q) = %q, want %q", pkg, got, want)
		}
	}
}

func TestForkSelf(t *testing.T) {
	cases := []struct {
		stack []string
		want  bool
	}{
		{[]string{"repro/internal/memsys.(*Memory).Fork"}, true},
		{[]string{"repro/internal/cpu.(*CPU).Restore", "repro/internal/harness.runImage"}, true},
		// A copy done by the runtime for a snapshot is the snapshot's.
		{[]string{"runtime.memmove", "repro/internal/core.(*Controller).Snapshot"}, true},
		// A runtime leaf under ordinary simulation is not.
		{[]string{"runtime.memmove", "repro/internal/cpu.(*CPU).step", "repro/internal/harness.RunForkedImage"}, false},
		{[]string{"repro/internal/cpu.(*CPU).executeBundle"}, false},
		{[]string{"runtime.mallocgc"}, false},
	}
	for _, c := range cases {
		if got := forkSelf(c.stack); got != c.want {
			t.Errorf("forkSelf(%v) = %v, want %v", c.stack, got, c.want)
		}
	}
}

// spinSnapshot burns CPU in a function whose name marks it as fork
// machinery, so a real profile of it exercises the decoder end to end.
//
//go:noinline
func spinSnapshot(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

func TestBucketRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for 400ms")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	sink = spinSnapshot(400 * time.Millisecond)
	pprof.StopCPUProfile()
	lp, err := bucketProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if lp.Samples < 10 {
		t.Skipf("only %d samples; host too loaded to judge", lp.Samples)
	}
	// The spinning function lives in package main, which is "other".
	if share := lp.Seconds["other"] / lp.Total; share < 0.8 {
		t.Errorf("other = %.2f of %.3fs, want most of it (%v)", share, lp.Total, lp.Seconds)
	}
	if share := lp.ForkSeconds / lp.Total; share < 0.8 {
		t.Errorf("fork = %.2f of %.3fs, want most of it", share, lp.Total)
	}
	if len(lp.Top) == 0 || lp.Top[0].Function != "main.spinSnapshot" {
		t.Errorf("hottest leaf %+v, want main.spinSnapshot", lp.Top)
	}
	var sum float64
	for _, s := range lp.Seconds {
		sum += s
	}
	if d := sum - lp.Total; d > 1e-9 || d < -1e-9 {
		t.Errorf("buckets sum to %g, total %g", sum, lp.Total)
	}
}

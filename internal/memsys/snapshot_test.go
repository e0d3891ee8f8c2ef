package memsys

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// checkFieldCoverage is the state-exhaustiveness net for the fork engine:
// every field of a snapshottable struct must be explicitly classified.
// Adding a field without teaching Reset/Snapshot/Restore (or consciously
// classifying it as derived/structural) fails the test by name.
func checkFieldCoverage(t *testing.T, typ reflect.Type, covered map[string]string) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := covered[name]; !ok {
			t.Errorf("%s has a new field %q not classified for snapshot coverage — teach Snapshot/Restore/Reset about it, then add it to this list", typ, name)
		}
	}
	for name := range covered {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("%s coverage list names %q, which no longer exists — prune it", typ, name)
		}
	}
}

func TestCacheSnapshotFieldCoverage(t *testing.T) {
	checkFieldCoverage(t, reflect.TypeOf(Cache{}), map[string]string{
		"cfg":      "validated by Restore",
		"numSets":  "derived from cfg",
		"assoc":    "derived from cfg",
		"lineBits": "derived from cfg",
		"setMask":  "derived from cfg",

		"useTick":    "captured",
		"lines":      "captured",
		"lastWay":    "captured",
		"victimIdx":  "captured",
		"victimBase": "captured",
		"victimTick": "captured",
		"Stats":      "captured",
	})
}

func TestMemoryForkFieldCoverage(t *testing.T) {
	checkFieldCoverage(t, reflect.TypeOf(Memory{}), map[string]string{
		"pages":  "captured by Fork (copy-on-write page sharing)",
		"tlb":    "derived read cache, repaired on page copy",
		"wtlb":   "derived write cache, cleared by Fork",
		"shared": "fork bookkeeping, rebuilt by Fork",
		"sealed": "fork bookkeeping",
	})
}

func TestHierarchySnapshotFieldCoverage(t *testing.T) {
	checkFieldCoverage(t, reflect.TypeOf(Hierarchy{}), map[string]string{
		"cfg":    "validated by Restore",
		"l1dLat": "derived from cfg",
		"l1iLat": "derived from cfg",
		"l2Lat":  "derived from cfg",
		"l3Lat":  "derived from cfg",

		"L1D":               "captured (per-level snapshot)",
		"L1I":               "captured (per-level snapshot)",
		"L2":                "captured (per-level snapshot)",
		"L3":                "captured (per-level snapshot)",
		"busNextFree":       "captured",
		"inflight":          "captured",
		"infHead":           "captured",
		"infCount":          "captured",
		"DroppedPrefetches": "captured",
		"PrefetchesIssued":  "captured",
		"MemAccesses":       "captured",
		"BusWaitCycles":     "captured",
		"MSHRWaitCycles":    "captured",
	})
}

// TestHierarchySnapshotRoundTrip drives a hierarchy into a non-trivial
// state (filled lines, in-flight misses, bus queueing), snapshots it,
// perturbs the original, restores, and demands the restored machine
// behave bit-identically to an unperturbed twin.
func TestHierarchySnapshotRoundTrip(t *testing.T) {
	mk := func() *Hierarchy { return NewHierarchy(DefaultConfig()) }
	drive := func(h *Hierarchy) {
		for i := uint64(0); i < 64; i++ {
			h.AccessLoad(i*3, 0x1000+i*256)
			h.AccessPrefetch(i*3+1, 0x80000+i*512)
		}
	}
	a, b := mk(), mk()
	drive(a)
	drive(b)
	snap := a.Snapshot()
	// Perturb a far away from the snapshot point.
	for i := uint64(0); i < 200; i++ {
		a.AccessStore(1000+i*7, 0xf0000+i*64)
	}
	if err := a.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// Identical post-restore behavior, including MSHR and bus state.
	for i := uint64(0); i < 64; i++ {
		ra := a.AccessLoad(300+i*5, 0x2000+i*128)
		rb := b.AccessLoad(300+i*5, 0x2000+i*128)
		if ra != rb {
			t.Fatalf("access %d diverged after restore: %+v vs %+v", i, ra, rb)
		}
	}
	sa := [4]CacheStats{a.L1D.Stats, a.L1I.Stats, a.L2.Stats, a.L3.Stats}
	sb := [4]CacheStats{b.L1D.Stats, b.L1I.Stats, b.L2.Stats, b.L3.Stats}
	if sa != sb {
		t.Fatalf("cache stats diverged after restore:\n a %+v\n b %+v", sa, sb)
	}
	if a.MemAccesses != b.MemAccesses || a.BusWaitCycles != b.BusWaitCycles ||
		a.MSHRWaitCycles != b.MSHRWaitCycles || a.PrefetchesIssued != b.PrefetchesIssued {
		t.Fatalf("aggregate counters diverged after restore")
	}

	// Structural mismatch is an error, not a partial restore.
	other := DefaultConfig()
	other.MemLatency++
	if err := NewHierarchy(other).Restore(snap); err == nil {
		t.Error("restore into a different hierarchy config did not error")
	}
	lv := NewCache(CacheConfig{Name: "x", Size: 1 << 12, LineSize: 64, Assoc: 2, HitLat: 1})
	if err := lv.Restore(a.L1D.Snapshot()); err == nil {
		t.Error("restore into a different cache config did not error")
	}
}

// TestMSHRRing pins the MSHR file's ring semantics directly, table-driven
// over capacity, completion times, and reservation kinds: prefetches are
// refused at a full file, demand misses wait exactly until the earliest
// completion, and pruning pops expired entries in completion order even
// across the ring's wrap point.
func TestMSHRRing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 4
	cases := []struct {
		name     string
		fill     []uint64 // completion times pushed into the ring
		now      uint64
		prefetch bool
		wantOK   bool
		wantWait uint64
	}{
		{name: "empty file admits demand", fill: nil, now: 0, wantOK: true},
		{name: "empty file admits prefetch", fill: nil, now: 0, prefetch: true, wantOK: true},
		{name: "full file refuses prefetch", fill: []uint64{100, 110, 120, 130}, now: 50, prefetch: true, wantOK: false},
		{name: "full file delays demand to earliest completion", fill: []uint64{100, 110, 120, 130}, now: 50, wantOK: true, wantWait: 50},
		{name: "expired entries free slots", fill: []uint64{100, 110, 120, 130}, now: 115, wantOK: true, wantWait: 0},
		{name: "boundary: completion at now is expired", fill: []uint64{100, 110, 120, 130}, now: 100, wantOK: true, wantWait: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHierarchy(cfg)
			for _, c := range tc.fill {
				h.addInflight(c)
			}
			delay, ok := h.reserveMSHR(tc.now, tc.prefetch)
			if ok != tc.wantOK || delay != tc.wantWait {
				t.Fatalf("reserveMSHR(now=%d, pf=%v) = (%d, %v), want (%d, %v)",
					tc.now, tc.prefetch, delay, ok, tc.wantWait, tc.wantOK)
			}
			if tc.wantOK && tc.wantWait > 0 && h.MSHRWaitCycles != tc.wantWait {
				t.Fatalf("MSHRWaitCycles = %d, want %d", h.MSHRWaitCycles, tc.wantWait)
			}
		})
	}

	t.Run("ring wraps in completion order", func(t *testing.T) {
		h := NewHierarchy(cfg)
		// Cycle the ring so the head is in the middle of the storage,
		// then force a wrap: ordering must survive.
		for i := uint64(0); i < 3; i++ {
			h.addInflight(10 + i)
		}
		h.pruneInflight(12) // pops all three, head now at index 3
		for _, c := range []uint64{200, 210, 220, 230} {
			h.addInflight(c) // physically wraps the ring
		}
		for want, now := range map[uint64]uint64{200: 190, 210: 205, 220: 215, 230: 225} {
			// reserveMSHR at a full file must wait for the true earliest
			// completion regardless of physical layout.
			hh := NewHierarchy(cfg)
			hh.inflight = append([]uint64(nil), h.inflight...)
			hh.infHead, hh.infCount = h.infHead, h.infCount
			hh.pruneInflight(now)
			if hh.infCount == cfg.MSHRs {
				delay, ok := hh.reserveMSHR(now, false)
				if !ok || now+delay != want {
					t.Fatalf("at now=%d: wait until %d, want %d", now, now+delay, want)
				}
			}
		}
	})

	t.Run("snapshot preserves ring layout", func(t *testing.T) {
		h := NewHierarchy(cfg)
		for _, c := range []uint64{300, 310, 320} {
			h.addInflight(c)
		}
		h.pruneInflight(305)
		snap := h.Snapshot()
		h.addInflight(999)
		h.pruneInflight(2000)
		if err := h.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if h.infCount != 2 || h.inflight[h.infHead] != 310 {
			t.Fatalf("restored ring head/count = %d/%d, want 310/2", h.inflight[h.infHead], h.infCount)
		}
	})
}

// TestMemoryForkCOW pins the copy-on-write fork semantics table-driven
// over write targets: writes after a fork are private to the writing
// side, reads through both the read- and write-TLB fast paths see the
// right page after a copy, and a forked child re-forked keeps working.
func TestMemoryForkCOW(t *testing.T) {
	const a, b = uint64(0x1000), uint64(0x200000) // distinct pages
	cases := []struct {
		name        string
		writeParent bool // write to parent after fork (else child)
		addr        uint64
	}{
		{name: "parent write does not leak into child", writeParent: true, addr: a},
		{name: "child write does not leak into parent", writeParent: false, addr: a},
		{name: "write to a fresh page stays private", writeParent: true, addr: b + 0x5000},
		{name: "child write to fresh page stays private", writeParent: false, addr: b + 0x5000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parent := NewMemory()
			parent.Write64(a, 111)
			parent.Write64(b, 222)
			parent.Read64(a) // prime the read TLB
			child := parent.Fork()

			writer, reader := parent, child
			if !tc.writeParent {
				writer, reader = child, parent
			}
			before := reader.Read64(tc.addr)
			writer.Write64(tc.addr, 0xdead)
			if got := reader.Read64(tc.addr); got != before {
				t.Fatalf("write leaked across the fork: reader sees %#x, want %#x", got, before)
			}
			if got := writer.Read64(tc.addr); got != 0xdead {
				t.Fatalf("writer's own read-TLB is stale after COW copy: %#x", got)
			}
			// Untouched pages remain shared and correct on both sides.
			if parent.Read64(a) != 111 && tc.addr != a {
				t.Fatal("unrelated page corrupted")
			}
			// The write fast path must also be consistent: a second write
			// through wtlb, then read back.
			writer.Write64(tc.addr, 0xbeef)
			if got := writer.Read64(tc.addr); got != 0xbeef {
				t.Fatalf("second write through wtlb lost: %#x", got)
			}
		})
	}
}

// TestMemoryForkChainAndConcurrency covers the frozen-snapshot contract:
// a forked (sealed) memory may be forked again, concurrently, without
// perturbation — the fork engine resumes many continuations from one
// snapshot in parallel worker goroutines.
func TestMemoryForkChainAndConcurrency(t *testing.T) {
	parent := NewMemory()
	for i := uint64(0); i < 64; i++ {
		parent.Write64(0x1000+i*8, i*7)
	}
	frozen := parent.Fork()
	parent.Write64(0x1000, 0xffff) // probe keeps running; snapshot must not see it

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := frozen.Fork()
			for i := uint64(0); i < 64; i++ {
				if got := m.Read64(0x1000 + i*8); got != i*7 {
					t.Errorf("fork %d: word %d = %d, want %d", g, i, got, i*7)
					return
				}
			}
			m.Write64(0x1000, uint64(g)) // private to this continuation
			if got := m.Read64(0x1000); got != uint64(g) {
				t.Errorf("fork %d: private write lost", g)
			}
		}()
	}
	wg.Wait()
	if got := frozen.Read64(0x1000); got != 0 {
		t.Fatalf("frozen snapshot mutated: %#x", got)
	}
	if got := parent.Read64(0x1000); got != 0xffff {
		t.Fatalf("parent lost its own write: %#x", got)
	}
}

// TestMemoryForkFootprintSharing is the cheapness claim: forking shares
// pages instead of copying them, so a fork's marginal footprint before
// any write is zero pages.
func TestMemoryForkFootprintSharing(t *testing.T) {
	m := NewMemory()
	for i := uint64(0); i < 32; i++ {
		m.Write64(uint64(i)<<pageBits, i)
	}
	f := m.Fork()
	if f.Footprint() != m.Footprint() {
		t.Fatalf("fork footprint %d != parent %d", f.Footprint(), m.Footprint())
	}
	for i := uint64(0); i < 32; i++ {
		pm, pf := m.pages[i], f.pages[i]
		if pm != pf {
			t.Fatalf("page %d copied eagerly; fork must share", i)
		}
	}
	f.Write64(0, 99)
	if m.pages[0] == f.pages[0] {
		t.Fatal("written page still shared after COW write")
	}
	if m.Read64(0) == 99 {
		t.Fatal("COW write reached the parent")
	}
}

// TestHierarchyDetached pins the statistics-only copy: every counter,
// Prefetch() and the JSON encoding match the live hierarchy, no level
// keeps line storage (checked by reflection, so a new slice, map or
// pointer field on Cache cannot silently ride along), and the live
// hierarchy keeps simulating unaffected.
func TestHierarchyDetached(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	for i := uint64(0); i < 4096; i++ {
		h.AccessLoad(i*3, 0x1000+i*136)
		h.AccessStore(i*3+1, 0x400000+i*72)
		h.AccessPrefetch(i*3+2, 0x900000+i*512)
		h.AccessInst(i*3, 0x40000+(i%512)*64)
	}
	d := h.Detached()

	if d.Prefetch() != h.Prefetch() {
		t.Errorf("Prefetch() diverged: %+v vs %+v", d.Prefetch(), h.Prefetch())
	}
	if d.Config() != h.Config() {
		t.Error("Config() diverged")
	}
	if d.MemAccesses != h.MemAccesses || d.BusWaitCycles != h.BusWaitCycles ||
		d.MSHRWaitCycles != h.MSHRWaitCycles || d.DroppedPrefetches != h.DroppedPrefetches ||
		d.PrefetchesIssued != h.PrefetchesIssued {
		t.Error("aggregate counters diverged")
	}
	hj, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	dj, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(hj) != string(dj) {
		t.Errorf("JSON diverged:\n live     %s\n detached %s", hj, dj)
	}
	if d.inflight != nil {
		t.Error("detached hierarchy kept the MSHR ring")
	}
	levels := []struct{ live, det *Cache }{{h.L1D, d.L1D}, {h.L1I, d.L1I}, {h.L2, d.L2}, {h.L3, d.L3}}
	for _, lv := range levels {
		if lv.det == lv.live {
			t.Fatalf("%s: detached copy shares the live cache", lv.live.cfg.Name)
		}
		if lv.det.Stats != lv.live.Stats || lv.det.Config() != lv.live.Config() || lv.det.LineSize() != lv.live.LineSize() {
			t.Errorf("%s: stats or geometry diverged", lv.live.cfg.Name)
		}
		v := reflect.ValueOf(lv.det).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Slice, reflect.Map, reflect.Ptr:
				if !f.IsNil() {
					t.Errorf("%s: detached cache keeps storage in field %s", lv.live.cfg.Name, v.Type().Field(i).Name)
				}
			}
		}
	}

	// The live hierarchy is untouched: it keeps hitting its resident lines.
	if r := h.AccessLoad(1<<20, 0x1000+4095*136); r.Level != LevelL1 {
		t.Errorf("live hierarchy lost its lines after Detached: %+v", r)
	}
}

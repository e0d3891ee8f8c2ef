package memsys

import "fmt"

// Snapshotting for the checkpoint/fork engine (DESIGN.md §16). A snapshot
// is a deep copy of every run-varying field; configuration-derived fields
// (geometry, latencies) are not captured — Restore validates instead that
// the receiver was built from the same configuration, so a snapshot can
// only be restored into a structurally identical machine.

// CacheSnapshot captures the run-varying state of one cache level.
type CacheSnapshot struct {
	cfg        CacheConfig
	useTick    uint64
	lines      []cacheLine
	lastWay    []uint8
	victimIdx  int
	victimBase int
	victimTick uint64
	stats      CacheStats
}

// Snapshot deep-copies the cache's mutable state.
func (c *Cache) Snapshot() *CacheSnapshot {
	return &CacheSnapshot{
		cfg:        c.cfg,
		useTick:    c.useTick,
		lines:      append([]cacheLine(nil), c.lines...),
		lastWay:    append([]uint8(nil), c.lastWay...),
		victimIdx:  c.victimIdx,
		victimBase: c.victimBase,
		victimTick: c.victimTick,
		stats:      c.Stats,
	}
}

// Restore overwrites the cache's mutable state from s. It errors (and
// leaves the cache untouched) when s was taken from a cache with a
// different configuration.
func (c *Cache) Restore(s *CacheSnapshot) error {
	if c.cfg != s.cfg {
		return fmt.Errorf("memsys: cache snapshot config %+v does not match %+v", s.cfg, c.cfg)
	}
	copy(c.lines, s.lines)
	copy(c.lastWay, s.lastWay)
	c.useTick = s.useTick
	c.victimIdx = s.victimIdx
	c.victimBase = s.victimBase
	c.victimTick = s.victimTick
	c.Stats = s.stats
	return nil
}

// HierarchySnapshot captures the run-varying state of the whole memory
// system: the four cache levels, the bus clock, the MSHR ring, and the
// aggregate counters.
type HierarchySnapshot struct {
	cfg         HierarchyConfig
	l1d         *CacheSnapshot
	l1i         *CacheSnapshot
	l2          *CacheSnapshot
	l3          *CacheSnapshot
	busNextFree uint64
	inflight    []uint64
	infHead     int
	infCount    int

	droppedPrefetches uint64
	prefetchesIssued  uint64
	memAccesses       uint64
	busWaitCycles     uint64
	mshrWaitCycles    uint64
}

// Snapshot deep-copies the hierarchy's mutable state.
func (h *Hierarchy) Snapshot() *HierarchySnapshot {
	return &HierarchySnapshot{
		cfg:         h.cfg,
		l1d:         h.L1D.Snapshot(),
		l1i:         h.L1I.Snapshot(),
		l2:          h.L2.Snapshot(),
		l3:          h.L3.Snapshot(),
		busNextFree: h.busNextFree,
		inflight:    append([]uint64(nil), h.inflight...),
		infHead:     h.infHead,
		infCount:    h.infCount,

		droppedPrefetches: h.DroppedPrefetches,
		prefetchesIssued:  h.PrefetchesIssued,
		memAccesses:       h.MemAccesses,
		busWaitCycles:     h.BusWaitCycles,
		mshrWaitCycles:    h.MSHRWaitCycles,
	}
}

// Restore overwrites the hierarchy's mutable state from s. It errors when
// s was taken from a hierarchy with a different configuration; a partial
// restore cannot happen because the per-level configs are validated before
// any level is written.
func (h *Hierarchy) Restore(s *HierarchySnapshot) error {
	if h.cfg != s.cfg {
		return fmt.Errorf("memsys: hierarchy snapshot config does not match")
	}
	for _, lv := range []struct {
		c *Cache
		s *CacheSnapshot
	}{{h.L1D, s.l1d}, {h.L1I, s.l1i}, {h.L2, s.l2}, {h.L3, s.l3}} {
		if lv.c.cfg != lv.s.cfg {
			return fmt.Errorf("memsys: hierarchy snapshot level config does not match")
		}
	}
	h.L1D.Restore(s.l1d)
	h.L1I.Restore(s.l1i)
	h.L2.Restore(s.l2)
	h.L3.Restore(s.l3)
	h.busNextFree = s.busNextFree
	copy(h.inflight, s.inflight)
	h.infHead = s.infHead
	h.infCount = s.infCount
	h.DroppedPrefetches = s.droppedPrefetches
	h.PrefetchesIssued = s.prefetchesIssued
	h.MemAccesses = s.memAccesses
	h.BusWaitCycles = s.busWaitCycles
	h.MSHRWaitCycles = s.mshrWaitCycles
	return nil
}

// Detached returns a statistics-only copy of the cache: its configuration
// and Stats, without the line storage or the way memo. The copy answers
// Config, LineSize and Stats exactly like c, but it cannot simulate: any
// access, fill or probe on it panics. Experiment results hold detached
// caches so that retaining a result does not retain the cache's lines.
func (c *Cache) Detached() *Cache {
	d := *c
	d.lines, d.lastWay = nil, nil
	return &d
}

// Detached returns a statistics-only copy of the hierarchy: its
// configuration, a Detached copy of every level, and the aggregate
// counters, without line storage or the MSHR ring. Prefetch and JSON
// marshaling give the same output as on h; simulating on the copy panics.
func (h *Hierarchy) Detached() *Hierarchy {
	d := *h
	d.L1D, d.L1I, d.L2, d.L3 = h.L1D.Detached(), h.L1I.Detached(), h.L2.Detached(), h.L3.Detached()
	d.inflight, d.infHead, d.infCount = nil, 0, 0
	return &d
}

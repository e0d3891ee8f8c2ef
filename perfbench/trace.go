package main

import (
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the benchmark around its calls into the program —
// never inside it — kept in memory, and written out when the run ends.

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// Parent is 0 for a root span. Spans of one request share Request.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, so untraced code
// paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(name, request string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Request: request,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// open starts a span whose end is set later by close; use it for parents,
// whose id the children need before the parent finishes.
func (t *tracer) open(name, request string, parent int64) int64 {
	now := time.Now()
	return t.record(name, request, parent, now, now)
}

// close ends the span opened as id and returns its duration.
func (t *tracer) close(id int64) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.dur())
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (parallel
// workers) count once, and a child running past its parent counts only
// inside the parent.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(lo, hi int64, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanSummary aggregates spans by name for the trace file.
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	P50ms  float64 `json:"p50_ms"`
	MaxMs  float64 `json:"max_ms"`
	SelfMs float64 `json:"self_ms_total"`
}

func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string][]span{}
	var names []string
	for _, s := range spans {
		if _, ok := byName[s.Name]; !ok {
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	sort.Strings(names)
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		ss := byName[n]
		durs := spanDurationsMs(ss)
		sum := spanSummary{Name: n, Count: len(ss), P50ms: median(durs), MaxMs: sortedCopy(durs)[len(durs)-1]}
		for _, s := range ss {
			sum.SelfMs += float64(self[s.ID]) / 1e6
		}
		out = append(out, sum)
	}
	return out
}

func spanDurationsMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

// spansNamed returns the spans called name.
func spansNamed(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children (parallel workers) cover [10, 50].
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A disjoint child covers [60, 70]; its own child [62, 65].
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "d", Start: 62, End: 65},
		// A child running past its parent counts only inside it.
		{ID: 6, Parent: 4, Name: "e", Start: 68, End: 90},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 40 - 10, // [10,50] and [60,70]
		2: 30, 3: 20,
		4: 10 - 3 - 2, // [62,65] and [68,70]
		5: 3, 6: 22,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeNestedChildrenDoNotDoubleCount(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "child", Start: 0, End: 10},
		{ID: 3, Parent: 2, Name: "grandchild", Start: 0, End: 10},
	}
	self := selfTimes(spans)
	if self[1] != 0 || self[2] != 0 || self[3] != 10 {
		t.Fatalf("self times %v", self)
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	tr := newTracer()
	root := tr.open("workload/x", "rep-1", 0)
	t0 := time.Now()
	child := tr.record("harness.run", "rep-1", root, t0, t0.Add(time.Millisecond))
	d := tr.close(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[child-1].Parent != root || spans[child-1].Request != "rep-1" {
		t.Fatalf("spans %+v", spans)
	}
	if time.Duration(spans[root-1].dur()) != d {
		t.Fatalf("close returned %v, span lasts %v", d, spans[root-1].dur())
	}
	var nilTracer *tracer
	if id := nilTracer.open("x", "", 0); id != 0 || nilTracer.close(id) != 0 || nilTracer.snapshot() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

package main

import "testing"

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose: n, n-1, ..., 1
		}
		return xs
	}
	cases := []struct {
		n          int
		ok         bool
		p          float64
		value      float64
		wantBeyond int
	}{
		{n: 19, ok: false}, // median leaves 9 beyond
		{n: 20, ok: true, p: 50, value: 10, wantBeyond: 10}, // p75 leaves 5
		{n: 100, ok: true, p: 90, value: 90, wantBeyond: 10},
		{n: 199, ok: true, p: 90, value: 180, wantBeyond: 19}, // p95 leaves 9
		{n: 200, ok: true, p: 95, value: 190, wantBeyond: 10},
		{n: 999, ok: true, p: 95, value: 950, wantBeyond: 49}, // p99 leaves 9
		{n: 1000, ok: true, p: 99, value: 990, wantBeyond: 10},
		{n: 10000, ok: true, p: 99.9, value: 9990, wantBeyond: 10},
	}
	for _, c := range cases {
		got, ok := tailOf(seq(c.n))
		if ok != c.ok {
			t.Errorf("n=%d: ok %v, want %v", c.n, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.P != c.p || got.Value != c.value || got.Beyond != c.wantBeyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g = %g with %d beyond", c.n, got, c.p, c.value, c.wantBeyond)
		}
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d beyond", c.n, got.Beyond)
		}
	}
}

func TestTailBeyondCountsStrictlyLarger(t *testing.T) {
	// 1000 samples: the top ten are 1000..991, so p99 (rank 990) is 990.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got, ok := tailOf(xs)
	if !ok || got.P != 99 || got.Value != 990 {
		t.Fatalf("got %+v, %v", got, ok)
	}
	above := 0
	for _, x := range xs {
		if x > got.Value {
			above++
		}
	}
	if above != got.Beyond {
		t.Fatalf("%d samples above the tail value, Beyond says %d", above, got.Beyond)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %g", m)
	}
}

package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: a percentile with fewer behind it is one or two
// unlucky samples, not a tail.
const minBeyond = 10

// tail is a reported tail latency: the value at percentile P of N
// samples, with Beyond samples strictly above its rank.
type tail struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

// tailOf picks the highest candidate percentile that leaves at least
// minBeyond samples beyond it, and reads it by nearest rank. ok is false
// when even the median leaves fewer than minBeyond beyond it.
func tailOf(xs []float64) (t tail, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := nearestRank(p, n)
		if n-rank >= minBeyond {
			return tail{P: p, Value: s[rank-1], N: n, Beyond: n - rank}, true
		}
	}
	return tail{N: n}, false
}

// nearestRank is the 1-based nearest-rank index of percentile p in n
// sorted samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

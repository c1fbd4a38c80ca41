package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-th percentile of ascending s by the
// nearest-rank rule: the value at rank ceil(p/100·n), 1-based.
func nearestRank(s []float64, p float64) (value float64, rank int) {
	rank = int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], rank
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail is a tail-latency read-out: the highest whole percentile that
// still has at least minBeyond samples beyond it.
type tail struct {
	Percentile int     `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// tailOf returns the highest whole percentile p ≥ 50 of xs whose
// nearest-rank value has at least minBeyond samples above its rank. ok is
// false when even the median lacks that support (fewer than 2·minBeyond
// samples): such a run has no tail to report.
func tailOf(xs []float64) (t tail, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n < 2*minBeyond {
		return tail{Samples: n}, false
	}
	for p := 99; p >= 50; p-- {
		v, rank := nearestRank(s, float64(p))
		if n-rank >= minBeyond {
			return tail{Percentile: p, Value: v, Samples: n, Beyond: n - rank}, true
		}
	}
	return tail{Samples: n}, false
}

package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tailOf must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestTailRule pins the tail percentile: the highest whole percentile
// whose nearest-rank value still has at least ten samples above it.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n         int
		ok        bool
		p         int
		value     float64
		beyond    int
		rationale string
	}{
		{0, false, 0, 0, 0, "no samples"},
		{19, false, 0, 0, 0, "the median (rank 10) has only 9 above it"},
		{20, true, 50, 10, 10, "rank 10 of 20 leaves exactly 10"},
		{21, true, 52, 11, 10, "p52 → rank ceil(10.92)=11, 10 above; p53 → rank 12, 9 above"},
		{100, true, 90, 90, 10, "p90 → rank 90; p91 would leave 9"},
		{1000, true, 99, 990, 10, "p99 → rank 990"},
	} {
		got, ok := tailOf(ramp(tc.n))
		if ok != tc.ok {
			t.Errorf("n=%d: ok=%v, want %v (%s)", tc.n, ok, tc.ok, tc.rationale)
			continue
		}
		if got.Samples != tc.n {
			t.Errorf("n=%d: samples %d", tc.n, got.Samples)
		}
		if !ok {
			continue
		}
		if got.Percentile != tc.p || got.Value != tc.value || got.Beyond != tc.beyond {
			t.Errorf("n=%d: got p%d=%v with %d beyond, want p%d=%v with %d beyond (%s)",
				tc.n, got.Percentile, got.Value, got.Beyond, tc.p, tc.value, tc.beyond, tc.rationale)
		}
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, got.Beyond)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for s := int64(-3); s < 4; s++ {
		for k := uint64(0); k < 200; k++ {
			v := deriveSeed(s, k)
			if v != deriveSeed(s, k) {
				t.Fatalf("deriveSeed(%d, %d) is not deterministic", s, k)
			}
			if v < 2 || v >= math.MaxInt32 {
				t.Fatalf("deriveSeed(%d, %d) = %d, outside [2, 2^31)", s, k, v)
			}
			seen[v] = true
		}
	}
	if len(seen) < 7*200-2 {
		t.Errorf("only %d distinct seeds from %d draws", len(seen), 7*200)
	}
}

func TestHistMedian(t *testing.T) {
	var l simLayers
	for i := 0; i < 5; i++ {
		l.queue.Observe(3) // bucket [2, 4)
	}
	l.queue.Observe(100)
	if got, want := histMedian(&l.queue), 2*math.Sqrt2; math.Abs(got-want) > 1e-9 {
		t.Errorf("histMedian = %v, want %v", got, want)
	}
	var empty simLayers
	if got := histMedian(&empty.rtt); got != 0 {
		t.Errorf("empty histMedian = %v", got)
	}
}

func TestOpPeak(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	w := window{MaxLive: 99, Lives: []liveSample{
		{at(5), 10}, {at(8), 30}, // op 1
		{at(15), 20}, // op 2
		{at(40), 90}, // between ops: counts only toward the window maximum
	}}
	ops := [][2]time.Time{{at(0), at(10)}, {at(10), at(20)}, {at(20), at(30)}}
	if got := opPeak(w, ops); got != 25 {
		t.Errorf("opPeak = %v, want the mean of 30 and 20 (the op without a cycle skipped)", got)
	}
	if got := opPeak(w, ops[2:]); got != 99 {
		t.Errorf("opPeak with no cycle inside any op = %v, want the window maximum 99", got)
	}
}

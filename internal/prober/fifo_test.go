package prober

import (
	"testing"
	"time"

	"openresolver/internal/capture"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
	"openresolver/internal/scan"
)

// silentProber starts a prober over a universe of 2^(32-shift) candidates
// with no resolvers registered, so every probe goes unanswered and stays
// in flight for the full timeout: the in-flight window settles at
// rate × timeout.
func silentProber(tb testing.TB, shift uint8, rate uint64, timeout time.Duration, clusterSize int) (*netsim.Sim, *Prober) {
	tb.Helper()
	sim := netsim.New(netsim.Config{Seed: 1, Latency: netsim.ConstantLatency(10 * time.Millisecond)})
	u, err := scan.NewUniverse(42, shift, nil)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := Start(sim, Config{
		Addr: proberAddr, Universe: u, SLD: sld, ClusterSize: clusterSize,
		PacketsPerSec: rate, Timeout: timeout,
		Log:  capture.NewProbeLog(),
		Skip: func(a ipv4.Addr) bool { return a == proberAddr },
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sim, p
}

// TestPendingFIFOBoundedCapacity runs a whole campaign with a 40k-entry
// in-flight window and pins the FIFO's memory: sweeping advances the head
// instead of shifting the array, and the swept prefix is reclaimed before
// the array grows, so capacity tracks the peak in-flight count rather than
// the ~260k probes sent. A steady-state tick allocates nothing.
func TestPendingFIFOBoundedCapacity(t *testing.T) {
	sim, p := silentProber(t, 14, 20000, 2*time.Second, 1<<16)
	peak, maxCap := 0, 0
	step := func() bool {
		ok, err := sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		peak = max(peak, p.inFlight())
		maxCap = max(maxCap, cap(p.pending))
		return ok
	}
	for sim.Now() < 4*time.Second && step() {
	}
	// Past the timeout the window is full and stable: each tick sweeps as
	// many entries as it sends, and the compaction reuses the array.
	if avg := testing.AllocsPerRun(100, func() { step() }); avg != 0 {
		t.Errorf("steady-state tick allocates %v/op, want 0", avg)
	}
	for step() {
	}
	if !p.Done() {
		t.Fatal("campaign did not finish")
	}
	if p.Sent() < 4*uint64(peak) {
		t.Fatalf("sent %d probes against a %d-entry window; the campaign is too short to pin the FIFO", p.Sent(), peak)
	}
	if peak < 39000 {
		t.Fatalf("peak in-flight %d, want about 40000 (rate × timeout)", peak)
	}
	if maxCap >= 2*peak {
		t.Errorf("cap(pending) reached %d for a peak in-flight count of %d, want < 2×", maxCap, peak)
	}
}

// TestSweepScanFromMovedHead pins the retransmission-mode sweep against a
// FIFO whose head has moved: the swept prefix is never rescanned (its
// stale entries must not queue retries), expired live entries go to the
// retry queue, unexpired ones are kept, and the head rewinds to zero.
func TestSweepScanFromMovedHead(t *testing.T) {
	w := newWorld(t, 20, 64)
	p, err := Start(w.sim, Config{
		Addr: proberAddr, Universe: w.u, SLD: sld, ClusterSize: 64,
		PacketsPerSec: 1000, Timeout: time.Second, Retries: 2,
		Log: capture.NewProbeLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 6; idx++ {
		p.sendAt[idx] = 0 // every referenced subdomain is in flight
	}
	c := p.cluster
	p.pending = append(p.pending[:0],
		pendingName{idx: 0, cluster: c, deadline: 0}, // swept prefix
		pendingName{idx: 1, cluster: c, deadline: 0}, // swept prefix
		pendingName{idx: 2, cluster: c, deadline: 100},
		pendingName{idx: 3, cluster: c, deadline: 200},
		pendingName{idx: 4, cluster: c, deadline: 900},
		pendingName{idx: 5, cluster: c, deadline: 1000},
	)
	p.pendHead = 2
	p.retryq = p.retryq[:0]

	p.sweepScan(500)

	if p.pendHead != 0 {
		t.Errorf("pendHead = %d after sweepScan, want 0", p.pendHead)
	}
	var kept []int
	for _, pn := range p.pending[p.pendHead:] {
		kept = append(kept, pn.idx)
	}
	if len(kept) != 2 || kept[0] != 4 || kept[1] != 5 {
		t.Errorf("in flight after sweepScan = %v, want [4 5]", kept)
	}
	var retry []int32
	for _, e := range p.retryq {
		retry = append(retry, e.idx)
	}
	if len(retry) != 2 || retry[0] != 2 || retry[1] != 3 {
		t.Errorf("retry queue = %v, want [2 3] (the swept prefix must not be rescanned)", retry)
	}
}

// benchmarkProberTick measures the per-probe cost of the send loop with an
// in-flight window of rate × timeout entries, all unanswered (the silent
// majority of a real sweep). One op is one probe, so ns/op is ns per
// probe; the timed loop steps whole ticks, each sweeping and sending 100
// probes.
func benchmarkProberTick(b *testing.B, timeout time.Duration) {
	const rate = 10000
	window := int(rate * timeout / time.Second)
	sim, p := silentProber(b, 6, rate, timeout, window+window/4)
	if err := sim.Run(timeout + time.Second); err != nil {
		b.Fatal(err)
	}
	if p.inFlight() < window*9/10 {
		b.Fatalf("warm-up left %d in flight, want about %d", p.inFlight(), window)
	}
	b.ReportAllocs()
	b.ResetTimer()
	target := p.Sent() + uint64(b.N)
	for p.Sent() < target {
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if p.Done() {
		b.Fatal("universe exhausted inside the timed loop")
	}
}

// BenchmarkProberTick reports the cost per probe at a ~2k and a ~200k entry
// in-flight window (same rate, timeouts 0.2 s and 20 s). The sweep is
// O(1) per probe, so the two windows cost about the same; a sweep that
// shifts the array every tick made the large window ~25× dearer per probe
// on a 2-core Xeon VM.
func BenchmarkProberTick(b *testing.B) {
	b.Run("window=2k", func(b *testing.B) { benchmarkProberTick(b, 200*time.Millisecond) })
	b.Run("window=200k", func(b *testing.B) { benchmarkProberTick(b, 20*time.Second) })
}

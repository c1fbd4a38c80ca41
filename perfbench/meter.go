package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Runtime counters read at the edges of a timed window.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mLiveHeap   = "/gc/heap/live:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mIdleCPU    = "/cpu/classes/idle:cpu-seconds"
)

type runtimeSample struct {
	allocBytes, gcCycles, liveHeap uint64
	gcCPU, busyCPU                 float64
	procCPU                        time.Duration
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mLiveHeap},
		{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mIdleCPU},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		liveHeap:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		busyCPU:    s[4].Value.Float64() - s[5].Value.Float64(),
		procCPU:    processCPU(),
	}
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter measures one timed window: process CPU, heap bytes allocated, GC
// cycles and GC CPU between start and stop, and the live heap left by
// every GC cycle in between (polled every 5 ms, time-stamped).
type meter struct {
	start runtimeSample
	lives []liveSample // owned by the poller until stop
	done  chan struct{}
	wg    sync.WaitGroup
}

// liveSample is the live heap after a GC cycle and when it was read.
type liveSample struct {
	at   time.Time
	live uint64
}

// window is a meter's read-out.
type window struct {
	CPU        time.Duration
	AllocBytes uint64
	GCCycles   uint64
	GCCPUShare float64
	Lives      []liveSample
	MaxLive    uint64
}

func startMeter() *meter {
	m := &meter{start: readRuntime(), done: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: mGCCycles}, {Name: mLiveHeap}}
		last := m.start.gcCycles
		for {
			select {
			case <-m.done:
				return
			case now := <-tick.C:
				metrics.Read(s)
				if c := s[0].Value.Uint64(); c != last {
					last = c
					m.lives = append(m.lives, liveSample{now, s[1].Value.Uint64()})
				}
			}
		}
	}()
	return m
}

func (m *meter) stop() window {
	close(m.done)
	m.wg.Wait()
	end := readRuntime()
	w := window{
		CPU:        end.procCPU - m.start.procCPU,
		AllocBytes: end.allocBytes - m.start.allocBytes,
		GCCycles:   end.gcCycles - m.start.gcCycles,
		Lives:      m.lives,
		MaxLive:    max(m.start.liveHeap, end.liveHeap),
	}
	for _, l := range m.lives {
		w.MaxLive = max(w.MaxLive, l.live)
	}
	if busy := end.busyCPU - m.start.busyCPU; busy > 0 {
		w.GCCPUShare = (end.gcCPU - m.start.gcCPU) / busy
	}
	return w
}

// opPeak is the peak live heap of the window's ops: for every op
// interval, the highest live heap a GC cycle inside it left, averaged over
// the ops. A cycle need not land on an op's transient high point, so each
// op's figure is one of a few levels depending on where its cycles fell;
// any single order statistic — the window-wide maximum, or a quantile over
// ops — flips between those levels from run to run (and the maximum also
// jumps when two jobs overlap), while their mean moves only with the
// share of ops at each level. Ops no cycle fell into are skipped; with
// none left it falls back to the window maximum.
func opPeak(w window, ops [][2]time.Time) float64 {
	var sum float64
	var n int
	for _, op := range ops {
		var peak uint64
		seen := false
		for _, l := range w.Lives {
			if !l.at.Before(op[0]) && !l.at.After(op[1]) {
				peak, seen = max(peak, l.live), true
			}
		}
		if seen {
			sum += float64(peak)
			n++
		}
	}
	if n == 0 {
		return float64(w.MaxLive)
	}
	return sum / float64(n)
}

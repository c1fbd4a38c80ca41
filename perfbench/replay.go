package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"openresolver/internal/analysis"
	"openresolver/internal/behavior"
	"openresolver/internal/core"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/scan"
	"openresolver/internal/threatintel"
)

// Layer replays: calls into a layer's public functions, timed from here,
// on inputs built the way a campaign of the workload builds them. They run
// after the traced window, outside every op, and measure layers that no
// outer call isolates — population compile, the scan permutation, and the
// per-response path (behavior → dnswire → analysis) that runs inside the
// engine's worker loops.

// replaySamples is how many probes the per-response replay draws.
const replaySamples = 2048

// replayLayers fills the population, scan, behavior, dnswire and analysis
// metrics, averaged over both years at the workload's scale. camps holds
// each year's Table II row from the workload's own ops; the report replay
// uses it as the campaign counts.
func replayLayers(m map[string]float64, shift uint8, seed int64, camps map[paperdata.Year]analysis.CampaignCounts) error {
	var sum struct {
		build, buildAlloc, universe, next                float64
		behavior, appendNs, unpack, addr2, bytes, report float64
	}
	for _, y := range years {
		r, err := replayYear(y, shift, seed, camps[y])
		if err != nil {
			return fmt.Errorf("%d: %w", y, err)
		}
		sum.build += r.buildMS
		sum.buildAlloc += r.buildAllocMB
		sum.universe += r.universeMS
		sum.next += r.nextNs
		sum.behavior += r.behaviorNs
		sum.appendNs += r.appendNs
		sum.unpack += r.unpackNs
		sum.addr2 += r.addr2Ns
		sum.bytes += r.respBytes
		sum.report += r.reportMS
	}
	n := float64(len(years))
	m["population.build_ms"] = sum.build / n
	m["population.build_alloc_mb"] = sum.buildAlloc / n
	m["scan.universe_ms"] = sum.universe / n
	m["scan.next_ns"] = sum.next / n
	m["behavior.build_ns"] = sum.behavior / n
	m["dnswire.append_ns"] = sum.appendNs / n
	m["dnswire.unpack_ns"] = sum.unpack / n
	m["analysis.addr2_ns"] = sum.addr2 / n
	m["dnswire.resp_bytes"] = sum.bytes / n
	m["analysis.report_ms"] = sum.report / n
	return nil
}

type yearReplay struct {
	buildMS, buildAllocMB, universeMS, nextNs                    float64
	behaviorNs, appendNs, unpackNs, addr2Ns, respBytes, reportMS float64
}

// probeSample is one replayed probe: its query, the responding cohort's
// behavior profile and resolution result, and the source address.
type probeSample struct {
	query   dnswire.Message
	profile behavior.Profile
	res     dnssrv.Result
	src     ipv4.Addr
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: mAllocBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timeMedian runs f reps times and returns the median duration.
func timeMedian(reps int, f func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

func replayYear(y paperdata.Year, shift uint8, seed int64, camp analysis.CampaignCounts) (yearReplay, error) {
	var r yearReplay
	var pop *population.Population
	var feed *threatintel.Feed

	// Population compile: time and heap bytes per population.Build, with
	// the threat feed built outside the measurement.
	feed = threatintel.NewFeed(y, seed)
	var allocs []float64
	d, err := timeMedian(3, func() error {
		a0 := heapAllocs()
		p, err := population.Build(population.Config{Year: y, SampleShift: shift, Seed: seed, Feed: feed})
		allocs = append(allocs, float64(heapAllocs()-a0))
		pop = p
		return err
	})
	if err != nil {
		return r, err
	}
	r.buildMS = ms(d)
	r.buildAllocMB = median(allocs) / 1e6

	// Scan permutation: universe construction, then ns per Iterator.Next
	// over sixteen contiguous ranges of the index space (the sim engine's
	// shard split), capped per range.
	var u *scan.Universe
	d, err = timeMedian(3, func() error {
		var err error
		u, err = scan.NewUniverse(uint64(seed), shift, ipv4.NewReservedBlocklist())
		return err
	})
	if err != nil {
		return r, err
	}
	r.universeMS = ms(d)
	const ranges, perRange = 16, 1 << 14
	var calls int
	start := time.Now()
	for i := uint64(0); i < ranges; i++ {
		lo := u.Indexes() * i / ranges
		hi := min(u.Indexes()*(i+1)/ranges, lo+perRange)
		it := u.Range(lo, hi)
		for {
			calls++
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
	r.nextNs = float64(time.Since(start)) / float64(calls)

	samples, err := sampleProbes(pop, u, shift)
	if err != nil {
		return r, err
	}

	// Per-response path, as the synthetic engine runs it per probe.
	resps := make([]dnswire.Message, len(samples))
	wires := make([][]byte, len(samples))
	const reps = 5
	d, _ = timeMedian(reps, func() error {
		for i := range samples {
			behavior.BuildResponseInto(&resps[i], &samples[i].query, samples[i].profile, samples[i].res)
		}
		return nil
	})
	r.behaviorNs = float64(d) / float64(len(samples))
	var buf []byte
	d, err = timeMedian(reps, func() error {
		for i := range resps {
			var err error
			if buf, err = resps[i].Append(buf[:0]); err != nil {
				return err
			}
			if wires[i] == nil {
				wires[i] = append([]byte(nil), buf...)
			}
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	r.appendNs = float64(d) / float64(len(samples))
	var total int
	for _, w := range wires {
		total += len(w)
	}
	r.respBytes = float64(total) / float64(len(wires))
	var msg dnswire.Message
	d, _ = timeMedian(reps, func() error {
		for _, w := range wires {
			_ = dnswire.UnpackInto(&msg, w) // malformed replies are part of the mix
		}
		return nil
	})
	r.unpackNs = float64(d) / float64(len(samples))

	accCfg := analysis.Config{Year: y, Threat: feed.DB, Geo: geo.DefaultRegistry()}
	var acc *analysis.Accumulator
	d, _ = timeMedian(reps, func() error {
		acc = analysis.NewAccumulator(accCfg)
		for i, w := range wires {
			acc.AddR2Into(samples[i].src, w, &msg)
		}
		return nil
	})
	r.addr2Ns = max(float64(d)/float64(len(samples))-r.unpackNs, 0)
	d, _ = timeMedian(reps, func() error {
		acc.Report(camp)
		return nil
	})
	r.reportMS = ms(d)
	return r, nil
}

// sampleProbes draws replaySamples probes spread evenly over the
// population's global probe index, so cohorts are represented by their
// size, and builds each probe's query exactly as the synthetic engine
// does: the probe name from its cluster and index, the transaction ID
// from its global index, the source from the address assigner.
func sampleProbes(pop *population.Population, u *scan.Universe, shift uint8) ([]probeSample, error) {
	assigner, err := population.NewAssigner(u, geo.DefaultRegistry(), pop,
		core.ProberAddr, core.RootAddr, core.TLDAddr, core.AuthAddr)
	if err != nil {
		return nil, err
	}
	var total uint64
	for _, c := range pop.Cohorts {
		total += c.Count
	}
	clusterSize := uint64(max(paperdata.ClusterSize>>shift, 16))
	n := uint64(min(replaySamples, total))
	out := make([]probeSample, 0, n)
	var name []byte
	ci, cum := 0, uint64(0)
	for k := uint64(0); k < n; k++ {
		g := (2*k + 1) * total / (2 * n)
		for cum+pop.Cohorts[ci].Count <= g {
			cum += pop.Cohorts[ci].Count
			ci++
		}
		cohort := &pop.Cohorts[ci]
		src, err := assigner.Next(cohort.Country)
		if err != nil {
			return nil, err
		}
		name = dnssrv.AppendProbeName(name[:0], int(g/clusterSize), int(g%clusterSize), paperdata.SLD)
		qname := dnswire.CanonicalName(string(name))
		s := probeSample{profile: cohort.Profile, src: src}
		s.query.Header = dnswire.Header{ID: core.ProbeQID(g), RD: true}
		s.query.Questions = []dnswire.Question{{Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN}}
		if cohort.Profile.Answer == behavior.AnswerTruth {
			s.res = dnssrv.Result{Addr: dnssrv.TruthAddr(qname), Rcode: dnswire.RcodeNoError, OK: true}
		}
		out = append(out, s)
	}
	return out, nil
}

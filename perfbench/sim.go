package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"openresolver/internal/analysis"
	"openresolver/internal/core"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
)

// simBench is sim-campaign: a closed loop with one caller whose op is a
// pristine simulated campaign for 2013 and then 2018 under one seed. The
// ops cycle through a small fixed set of seeds; every repeat of a (year,
// seed) must reproduce the first run's FaultDigest, and so must the
// traced shard-seam pass.
type simBench struct {
	o       options
	t       *tally
	seeds   []int64
	n       int
	digests map[campaignID]string
	camps   map[paperdata.Year]analysis.CampaignCounts
	col     simLayers
}

type campaignID struct {
	year paperdata.Year
	seed int64
}

func newSimBench(o options, t *tally) *simBench {
	b := &simBench{
		o: o, t: t,
		digests: map[campaignID]string{},
		camps:   map[paperdata.Year]analysis.CampaignCounts{},
	}
	for k := 0; k < o.scale.SimSeeds; k++ {
		b.seeds = append(b.seeds, deriveSeed(o.seed, uint64(k)))
	}
	return b
}

func (b *simBench) setup() error {
	_, err := b.op(nil)
	b.t.record("sim-campaign warm-up", err)
	return nil
}

func (b *simBench) teardown() {}

func (b *simBench) config(y paperdata.Year, seed int64) core.Config {
	return core.Config{Year: y, SampleShift: b.o.scale.SimShift, Seed: seed, Workers: b.o.scale.Workers}
}

func (b *simBench) window(d time.Duration, tr *tracer) windowStats {
	if tr != nil {
		// Every traced campaign is checked against an untraced
		// core.RunSimulation of the same (year, seed); make sure each
		// reference exists before the clock starts.
		for _, seed := range b.seeds {
			for _, y := range years {
				if _, ok := b.digests[campaignID{y, seed}]; ok {
					continue
				}
				ds, err := core.RunSimulation(b.config(y, seed))
				if err != nil {
					b.t.record("sim-campaign reference", err)
					continue
				}
				b.digests[campaignID{y, seed}] = core.FaultDigest(ds)
			}
		}
	}
	return closedWindow(d, func() (uint64, error) { return b.op(tr) }, b.t, "sim-campaign op")
}

// op runs one campaign pair: untraced through core.RunSimulation, traced
// through the shard seams (OpenShardCampaign → RunShardEnvelope →
// LoadEnvelope → Merge), which must give the same digest.
func (b *simBench) op(tr *tracer) (uint64, error) {
	id := b.n
	seed := b.seeds[b.n%len(b.seeds)]
	b.n++
	root := tr.begin(id, -1, "op", fmt.Sprint(seed))
	defer tr.end(root)
	var probes uint64
	for _, y := range years {
		cfg := b.config(y, seed)
		label := fmt.Sprint(y)
		var ds *core.Dataset
		var err error
		if tr == nil {
			ds, err = core.RunSimulation(cfg)
		} else {
			var ct *campaignTrace
			ct, err = runShardPath(cfg, b.o.scale.Workers, tr, id, root, label)
			if err == nil {
				ds = ct.ds
				b.col.addCampaign(ct)
			}
		}
		if err != nil {
			return 0, err
		}
		sp := tr.begin(id, root, "check.digest", label)
		err = b.checkDigest(campaignID{y, seed}, core.FaultDigest(ds))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		b.camps[y] = ds.Report.Campaign
		probes += ds.Report.Campaign.Q1
	}
	if tr != nil {
		b.col.ops++
	}
	return probes, nil
}

func (b *simBench) checkDigest(id campaignID, got string) error {
	want, ok := b.digests[id]
	if !ok {
		b.digests[id] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("%d seed %d: digest %.16s differs from the first run's %.16s", id.year, id.seed, got, want)
	}
	return nil
}

func (b *simBench) layers(m map[string]float64) error {
	b.col.fill(m)
	return replayLayers(m, b.o.scale.SimShift, b.seeds[0], b.camps)
}

// campaignTrace is one campaign run through the shard seams, with the
// time each seam took.
type campaignTrace struct {
	ds       *core.Dataset
	reg      *obs.Registry
	open     time.Duration
	place    time.Duration
	fanout   time.Duration
	workers  int
	shards   []time.Duration
	envBytes int
	load     time.Duration
	merge    time.Duration
}

// runShardPath runs cfg's campaign the way the fabric does, in process:
// open it at its shard seams, run every shard to its checkpoint envelope
// on a pool of workers, load the envelopes back and merge them. With a
// tracer, each seam is a span under parent.
func runShardPath(cfg core.Config, workers int, tr *tracer, op, parent int, label string) (*campaignTrace, error) {
	ct := &campaignTrace{reg: obs.NewRegistry(), workers: workers}
	cfg.Obs = ct.reg
	start := time.Now()
	sc, err := core.OpenShardCampaign(cfg)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	ct.open = end.Sub(start)
	sp := tr.add(op, parent, "core.open", label, start, end)
	addPhases(tr, op, sp, label, ct.reg, start)
	for _, ph := range ct.reg.Tracer().Spans() {
		if ph.Name == "population-place" {
			ct.place += ph.End - ph.Start
		}
	}

	n := sc.NumShards()
	envs := make([][]byte, n)
	errs := make([]error, n)
	ct.shards = make([]time.Duration, n)
	fan := tr.begin(op, parent, "core.fanout", label)
	fanStart := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := time.Now()
				envs[i], errs[i] = sc.RunShardEnvelope(i)
				e := time.Now()
				ct.shards[i] = e.Sub(s)
				tr.add(op, fan, "core.shard", label+"/"+strconv.Itoa(i), s, e)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	ct.fanout = time.Since(fanStart)
	tr.end(fan)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}

	for i, env := range envs {
		s := time.Now()
		err := sc.LoadEnvelope(i, env)
		e := time.Now()
		ct.load += e.Sub(s)
		ct.envBytes += len(env)
		tr.add(op, parent, "core.envelope_load", label+"/"+strconv.Itoa(i), s, e)
		if err != nil {
			return nil, fmt.Errorf("load shard %d: %w", i, err)
		}
	}
	s := time.Now()
	ct.ds, err = sc.Merge()
	e := time.Now()
	ct.merge = e.Sub(s)
	tr.add(op, parent, "core.merge", label, s, e)
	return ct, err
}

// simLayers accumulates the per-layer read-outs of simulated campaigns:
// the seam timings of campaigns run through runShardPath and the counters
// of every dataset an op produced.
type simLayers struct {
	ops       int // ops the datasets belong to
	campaigns []*campaignTrace

	events, noRoute, sent, virtualNanos, faultDrops uint64
	probeSent, answered, q2, r1                     uint64
	queue, rtt                                      obs.Histogram
}

// addCampaign records a shard-path campaign: its seams and its dataset.
func (l *simLayers) addCampaign(ct *campaignTrace) {
	l.campaigns = append(l.campaigns, ct)
	l.addDataset(ct.ds, ct.reg)
}

// addDataset records a simulated dataset's counters; reg is the registry
// the campaign ran against (nil when it had none).
func (l *simLayers) addDataset(ds *core.Dataset, reg *obs.Registry) {
	ns := ds.NetStats
	l.events += ns.Delivered + ns.NoRoute + ns.Lost + ns.Timers
	l.noRoute += ns.NoRoute
	l.sent += ns.Sent
	l.faultDrops += ds.FaultStats.Dropped
	l.probeSent += ds.ProbeStats.Sent
	l.answered += ds.ProbeStats.Answered
	l.q2 += ds.Report.Campaign.Q2
	l.r1 += ds.Report.Campaign.R1
	if reg != nil {
		merged := reg.Merged()
		l.virtualNanos += merged.Counter(obs.CSimVirtualNanos)
		l.queue.Merge(merged.Histogram(obs.HQueueDepth))
		l.rtt.Merge(merged.Histogram(obs.HRTT))
	}
}

// fill writes the netsim, prober, dnssrv and core metrics. Counts are per
// op; seam times are per campaign (median over campaigns).
func (l *simLayers) fill(m map[string]float64) {
	if l.ops > 0 {
		n := float64(l.ops)
		m["netsim.events_per_op"] = float64(l.events) / n
		m["netsim.virtual_s_per_op"] = float64(l.virtualNanos) / 1e9 / n
		m["netsim.fault_drops_per_op"] = float64(l.faultDrops) / n
		m["prober.sent_per_op"] = float64(l.probeSent) / n
		m["dnssrv.q2_per_op"] = float64(l.q2) / n
		m["dnssrv.r1_per_op"] = float64(l.r1) / n
	}
	if l.sent > 0 {
		m["netsim.noroute_share"] = float64(l.noRoute) / float64(l.sent)
	}
	if l.probeSent > 0 {
		m["prober.answered_ratio"] = float64(l.answered) / float64(l.probeSent)
	}
	m["netsim.queue_depth_p50"] = histMedian(&l.queue)
	m["prober.rtt_p50_ms"] = histMedian(&l.rtt) / 1e6
	if len(l.campaigns) == 0 {
		return
	}
	var open, place, load, merge, p50, maxs, straggle, busy, envKB []float64
	var shardWall time.Duration
	var events uint64
	for _, ct := range l.campaigns {
		open = append(open, ms(ct.open))
		place = append(place, ms(ct.place))
		load = append(load, ms(ct.load))
		merge = append(merge, ms(ct.merge))
		var sh []float64
		var sum time.Duration
		for _, d := range ct.shards {
			sh = append(sh, ms(d))
			sum += d
		}
		mid, top := median(sh), sorted(sh)[len(sh)-1]
		p50 = append(p50, mid)
		maxs = append(maxs, top)
		if mid > 0 {
			straggle = append(straggle, top/mid)
		}
		if ct.fanout > 0 {
			busy = append(busy, float64(sum)/(float64(ct.workers)*float64(ct.fanout)))
		}
		envKB = append(envKB, float64(ct.envBytes)/1e3/float64(len(ct.shards)))
		shardWall += sum
		ns := ct.ds.NetStats
		events += ns.Delivered + ns.NoRoute + ns.Lost + ns.Timers
	}
	m["core.open_ms"] = median(open)
	m["core.place_ms"] = median(place)
	m["core.shard_ms_p50"] = median(p50)
	m["core.shard_ms_max"] = median(maxs)
	m["core.straggler_ratio"] = median(straggle)
	m["core.worker_busy_share"] = median(busy)
	m["core.envelope_kb"] = median(envKB)
	m["core.envelope_load_ms"] = median(load)
	m["core.merge_ms"] = median(merge)
	if events > 0 {
		m["netsim.ns_per_event"] = float64(shardWall) / float64(events)
	}
}

// histMedian estimates the median of a log2 histogram as the geometric
// middle of the bucket holding it (0 for an empty histogram).
func histMedian(h *obs.Histogram) float64 {
	snap := h.Snapshot()
	if snap.Count == 0 {
		return 0
	}
	half := (snap.Count + 1) / 2
	var cum uint64
	for _, b := range snap.Buckets {
		cum += b.Count
		if cum >= half {
			if b.Lo == 0 {
				return 0
			}
			return float64(b.Lo) * 1.4142135623730951
		}
	}
	return float64(snap.Max)
}

package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"openresolver/internal/analysis"
	"openresolver/internal/behavior"
	"openresolver/internal/capture"
	"openresolver/internal/classify"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/prober"
	"openresolver/internal/scan"
	"openresolver/internal/threatintel"
)

// Infrastructure addresses of the measurement (outside every reserved
// block; excluded from probing like the paper's own systems).
var (
	// ProberAddr hosts the modified-ZMap prober (a campus address, as in
	// the paper's UCF deployment).
	ProberAddr = ipv4.MustParseAddr("132.170.3.9")
	// RootAddr stands in for the root name-server infrastructure.
	RootAddr = ipv4.MustParseAddr("198.41.0.4")
	// TLDAddr stands in for the .net gTLD servers.
	TLDAddr = ipv4.MustParseAddr("192.5.6.30")
	// AuthAddr is the controlled authoritative server (a cloud instance in
	// the paper).
	AuthAddr = ipv4.MustParseAddr("45.76.1.10")
)

// Config parameterizes a campaign run.
type Config struct {
	// Year selects the 2013 or 2018 campaign model.
	Year paperdata.Year
	// SampleShift scales the universe and population to 1/2^SampleShift.
	SampleShift uint8
	// Seed drives all randomness.
	Seed int64
	// PacketsPerSec overrides the campaign's probe rate (0 = paper value).
	PacketsPerSec uint64
	// KeepPackets retains raw R2 packets in the dataset (simulation mode).
	KeepPackets bool
	// Workers sets the campaign's parallelism. Synthetic mode splits the
	// population into contiguous probe-index shards, each processed by one
	// worker against its own accumulator, with the shard accumulators
	// merged in shard order (prefix-sum-seeded assigner cursors; DESIGN.md
	// §2). Simulation mode schedules the campaign's fixed set of private
	// sub-simulations — contiguous probe-range shards with disjoint
	// subdomain-cluster namespaces and proportional rate slices (DESIGN.md
	// §12) — over a pool of Workers goroutines. In both modes the
	// decomposition is a function of the configuration alone, so the report
	// is byte-identical for every value. 0 uses runtime.GOMAXPROCS(0); 1
	// runs serially.
	Workers int
	// Faults configures adverse-network fault injection and the adaptive
	// retransmission machinery (simulation mode only; the zero value is a
	// pristine network with the paper's single-shot prober).
	Faults FaultPlan
	// Obs, when non-nil, receives the campaign's observability stream:
	// phase spans for every stage, one metrics shard per worker (in
	// simulation mode, one per sub-simulation, registered in shard order),
	// and the virtual-vs-wall clock ratio. Metrics never influence the
	// campaign — reports are bit-identical with Obs attached (pinned by
	// the metrics golden test).
	Obs *obs.Registry
	// Ctx, when non-nil, allows cooperative cancellation. A cancelled
	// campaign stops dispatching work at the next shard boundary
	// (simulation mode) or probe batch (synthetic mode), drains what is in
	// flight — checkpointing it when Checkpoints is configured — and
	// returns ErrInterrupted. Nil means run to completion.
	Ctx context.Context
	// Checkpoints configures shard-granular checkpoint/restore for
	// simulation-mode campaigns (DESIGN.md §13): every completed
	// sub-simulation is persisted atomically, and a rerun with the same
	// configuration and checkpoint directory resumes from the completed
	// shards, producing byte-identical output. The zero value disables
	// checkpointing.
	Checkpoints CheckpointPlan
}

// FaultPlan wires the fault-injection layer and the retransmission engines
// through a simulated campaign (DESIGN.md §8).
type FaultPlan struct {
	// Impairments degrade the network (netsim's composable fault pipeline:
	// burst loss, duplication, reordering, corruption, blackholes,
	// brownouts — see netsim.ParseImpairments for the CLI spec grammar).
	Impairments []netsim.Impairment
	// Retries is the prober's per-probe retransmission budget.
	Retries int
	// AdaptiveTimeout replaces the prober's fixed 2s timeout with the
	// Jacobson/Karn RTO estimator.
	AdaptiveTimeout bool
	// UpstreamBackoff hardens every resolver's recursion engine: upstream
	// retries back off exponentially with jitter instead of re-firing on a
	// fixed interval.
	UpstreamBackoff bool
	// MaxQueuedEvents bounds the simulator's event queue — the safety
	// valve the chaos tests use to prove impairments cannot feed back into
	// queue blowup. 0 means unbounded.
	MaxQueuedEvents int
}

// pristine reports whether the plan changes anything at all.
func (f FaultPlan) pristine() bool {
	return len(f.Impairments) == 0 && f.Retries == 0 && !f.AdaptiveTimeout &&
		!f.UpstreamBackoff && f.MaxQueuedEvents == 0
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) pps() uint64 {
	if c.PacketsPerSec > 0 {
		return c.PacketsPerSec
	}
	return paperdata.Campaigns[c.Year].PacketsPerSec
}

// scaledClusterSize returns the subdomain-cluster size at the run's scale.
func (c Config) scaledClusterSize() int {
	s := paperdata.ClusterSize >> c.SampleShift
	if s < 16 {
		s = 16
	}
	return s
}

// sendSkip returns the modeled 2013 send-loss probability (discrepancy D2).
func (c Config) sendSkip() float64 {
	if c.Year != paperdata.Y2013 {
		return 0
	}
	allowed := float64(paperdata.Campaigns[paperdata.Y2018].Q1)
	return 1 - float64(paperdata.Campaigns[paperdata.Y2013].Q1)/allowed
}

// Dataset is the outcome of one campaign.
type Dataset struct {
	Config Config
	// Report carries every regenerated table.
	Report *analysis.Report
	// Population is the compiled resolver population the campaign ran
	// against.
	Population *population.Population
	// ClustersUsed counts subdomain clusters consumed (§III-B).
	ClustersUsed int
	// SubdomainsReused counts pool returns (simulation mode).
	SubdomainsReused uint64
	// NetStats are the simulator's packet counters (simulation mode).
	NetStats netsim.Stats
	// FaultStats count the impairment pipeline's interventions (simulation
	// mode; all zero on a pristine network).
	FaultStats netsim.FaultStats
	// ProbeStats is the prober's counter snapshot, including the
	// retransmission engine's retransmit/late/duplicate/gave-up counters
	// (simulation mode).
	ProbeStats prober.Stats
	// R2Packets are the raw captured responses (KeepPackets only).
	R2Packets []capture.Packet
	// Roles classifies every responder by correlating the prober and
	// authoritative captures (simulation mode with KeepPackets only).
	Roles *classify.Summary
}

// buildDeps constructs the shared dependencies of both modes.
func buildDeps(cfg Config) (*population.Population, *threatintel.Feed, *geo.Registry, *scan.Universe, error) {
	feed := threatintel.NewFeed(cfg.Year, cfg.Seed)
	pop, err := population.Build(population.Config{
		Year: cfg.Year, SampleShift: cfg.SampleShift, Seed: cfg.Seed, Feed: feed,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	reg := geo.DefaultRegistry()
	u, err := scan.NewUniverse(uint64(cfg.Seed), cfg.SampleShift, ipv4.NewReservedBlocklist())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return pop, feed, reg, u, nil
}

// RunSynthetic streams the full campaign through the analysis pipeline:
// every response is encoded to wire format and decoded back by the
// analyzer, exercising the identical classification path as the simulation.
func RunSynthetic(cfg Config) (*Dataset, error) {
	pop, feed, _, _, err := buildDeps(cfg)
	if err != nil {
		return nil, err
	}
	return SynthesizePopulation(cfg, pop, feed.DB)
}

// SynthesizePopulation streams an arbitrary compiled population through
// the analysis pipeline. threat must cover every malicious address the
// population answers with (for mixed populations, merge the years' feeds).
// It is the engine behind RunSynthetic and the drift-monitoring extension.
func SynthesizePopulation(cfg Config, pop *population.Population, threat *threatintel.DB) (*Dataset, error) {
	if !cfg.Faults.pristine() {
		return nil, fmt.Errorf("core: fault injection requires simulation mode (the synthetic engine has no network to impair)")
	}
	tr := cfg.Obs.Tracer()
	sp := tr.Begin("scan-universe")
	reg := geo.DefaultRegistry()
	u, err := scan.NewUniverse(uint64(cfg.Seed), cfg.SampleShift, ipv4.NewReservedBlocklist())
	if err != nil {
		return nil, err
	}
	assigner, err := population.NewAssigner(u, reg, pop, ProberAddr, RootAddr, TLDAddr, AuthAddr)
	if err != nil {
		return nil, err
	}
	tr.End(sp)
	clusterSize := cfg.scaledClusterSize()
	sp = tr.Begin("synthesize")
	acc, err := synthesize(cfg, pop, threat, reg, assigner, clusterSize)
	if err != nil {
		return nil, err
	}
	tr.End(sp)

	sp = tr.Begin("report")
	camp := syntheticCampaignCounts(cfg, pop, clusterSize)
	ds := &Dataset{
		Config:       cfg,
		Report:       acc.Report(camp),
		Population:   pop,
		ClustersUsed: int((pop.ExpectedR2 + uint64(clusterSize) - 1) / uint64(clusterSize)),
	}
	tr.End(sp)
	return ds, nil
}

// ProbeQID returns the DNS transaction ID of the probe at zero-based
// global index i. IDs start at 1 and wrap modulo 2^16 — i.e. every 65,536
// probes the ID passes through 0 — exactly reproducing the serial engine's
// historical bare uint16 increment. Making the wrap explicit gives shards
// a well-defined starting ID derived from their global offset alone; the
// helper is shared by the serial and parallel paths so they cannot drift.
func ProbeQID(i uint64) uint16 {
	return uint16((i + 1) & 0xFFFF)
}

// shardPlan describes one worker's contiguous slice of the campaign: the
// global probe-index range it synthesizes, where that range starts in the
// cohort list, and how many assignments of each kind precede it — the
// prefix sums that seed the worker's assigner cursors so it draws exactly
// the source addresses the serial walk would have drawn for the range.
type shardPlan struct {
	start, end uint64 // global probe indexes [start, end)
	cohort     int    // index of the cohort containing start
	offset     uint64 // probes into that cohort at start
	unpinned   uint64 // unconstrained assignments before start
	byCountry  map[string]uint64
}

// planShards splits total probes into n balanced contiguous shards,
// computing every shard's cohort position and assignment prefix sums in
// one walk over the cohort list.
func planShards(pop *population.Population, total uint64, n int) []shardPlan {
	plans := make([]shardPlan, 0, n)
	var (
		cum      uint64 // global index at the start of cohort ci
		unpinned uint64 // unconstrained assignments before cum
		country  = make(map[string]uint64)
		ci       int
	)
	for w := 0; w < n; w++ {
		start := total * uint64(w) / uint64(n)
		end := total * uint64(w+1) / uint64(n)
		// Advance the walk until cohort ci contains start.
		for ci < len(pop.Cohorts) && cum+pop.Cohorts[ci].Count <= start {
			c := &pop.Cohorts[ci]
			if c.Country == "" {
				unpinned += c.Count
			} else {
				country[c.Country] += c.Count
			}
			cum += c.Count
			ci++
		}
		p := shardPlan{
			start: start, end: end,
			cohort:    ci,
			offset:    start - cum,
			unpinned:  unpinned,
			byCountry: make(map[string]uint64, len(country)),
		}
		for k, v := range country {
			p.byCountry[k] = v
		}
		// The partial cohort's own prefix.
		if ci < len(pop.Cohorts) && p.offset > 0 {
			if c := &pop.Cohorts[ci]; c.Country == "" {
				p.unpinned += p.offset
			} else {
				p.byCountry[c.Country] += p.offset
			}
		}
		plans = append(plans, p)
	}
	return plans
}

// synthWorker holds one worker's streaming state: its accumulator, its
// assigner cursors, and the scratch buffers the per-probe path reuses —
// query and response messages, the encode buffer, the qname builder, and
// the decode message — so a steady-state probe allocates nothing: the
// qname aliases the builder and decoded names alias the decode arena.
type synthWorker struct {
	clusterSize uint64
	assigner    *population.Assigner
	acc         *analysis.Accumulator
	obs         *obs.Shard

	query, resp, decoded dnswire.Message
	buf, name            []byte
}

// run synthesizes the worker's shard. The global probe index g determines
// the qname and transaction ID; the assigner cursors determine the source
// address; together they reproduce the serial loop's exact output for
// [start, end). Cancellation is polled every 64Ki probes — cheap against
// the per-probe work, fine-grained against a multi-minute shard.
func (w *synthWorker) run(ctx context.Context, pop *population.Population, plan shardPlan) error {
	g := plan.start
	for ci := plan.cohort; ci < len(pop.Cohorts) && g < plan.end; ci++ {
		cohort := &pop.Cohorts[ci]
		i := uint64(0)
		if ci == plan.cohort {
			i = plan.offset
		}
		for ; i < cohort.Count && g < plan.end; i++ {
			if g&0xFFFF == 0 && ctx.Err() != nil {
				return ErrInterrupted
			}
			if err := w.probe(cohort, g); err != nil {
				return err
			}
			g++
		}
	}
	if g != plan.end {
		return fmt.Errorf("core: shard [%d,%d) ran out of cohorts at %d", plan.start, plan.end, g)
	}
	return nil
}

func (w *synthWorker) probe(cohort *population.Cohort, g uint64) error {
	src, err := w.assigner.Next(cohort.Country)
	if err != nil {
		return err
	}
	w.name = dnssrv.AppendProbeName(w.name[:0],
		int(g/w.clusterSize), int(g%w.clusterSize), paperdata.SLD)
	// AppendProbeName emits canonical names (lowercase, no trailing dot;
	// TestProbeNameCanonical pins it), so the qname is used as built. It
	// aliases w.name rather than copying it: the next probe rewrites those
	// bytes, which is safe because everything that sees the qname — the
	// query, the response, TruthAddr — is dead once this probe returns.
	// The accumulator only ever sees names decoded from w.buf into
	// w.decoded's arena, never this string.
	qname := unsafe.String(unsafe.SliceData(w.name), len(w.name))
	w.query.Header = dnswire.Header{ID: ProbeQID(g), RD: true}
	w.query.Questions = append(w.query.Questions[:0],
		dnswire.Question{Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN})
	res := dnssrv.Result{}
	if cohort.Profile.Answer == behavior.AnswerTruth {
		res = dnssrv.Result{Addr: dnssrv.TruthAddr(qname), Rcode: dnswire.RcodeNoError, OK: true}
	}
	behavior.BuildResponseInto(&w.resp, &w.query, cohort.Profile, res)
	w.buf, err = w.resp.Append(w.buf[:0])
	if err != nil {
		return fmt.Errorf("core: encode response: %w", err)
	}
	w.obs.Inc(obs.CSynthProbes)
	w.obs.Add(obs.CSynthBytes, uint64(len(w.buf)))
	w.obs.Observe(obs.HRespBytes, int64(len(w.buf)))
	w.acc.AddR2Into(src, w.buf, &w.decoded)
	return nil
}

// synthesize streams the whole population through the analysis pipeline,
// fanning out over cfg.workers() shard workers and merging their
// accumulators in shard order. Workers(1) runs the single shard inline —
// the legacy serial path. Each worker forks the assigner and fast-forwards
// its cursors past the preceding shards' draws (O(1) per country, one
// cheap stride step per unpinned draw), so the merged accumulator is
// provably identical to the serial one for any worker count.
func synthesize(cfg Config, pop *population.Population, threat *threatintel.DB,
	reg *geo.Registry, assigner *population.Assigner, clusterSize int) (*analysis.Accumulator, error) {
	var total uint64
	for _, c := range pop.Cohorts {
		total += c.Count
	}
	accCfg := analysis.Config{Year: cfg.Year, Threat: threat, Geo: reg}
	workers := cfg.workers()
	if uint64(workers) > total {
		workers = int(total)
	}
	if workers < 1 {
		workers = 1
	}
	newWorker := func(a *population.Assigner, sh *obs.Shard) *synthWorker {
		return &synthWorker{
			clusterSize: uint64(clusterSize),
			assigner:    a,
			acc:         analysis.NewAccumulator(accCfg),
			obs:         sh,
			buf:         make([]byte, 0, 512),
			name:        make([]byte, 0, 64),
		}
	}
	ctx := cfg.ctx()
	if workers == 1 {
		w := newWorker(assigner, cfg.Obs.NewShard("synth-0"))
		if err := w.run(ctx, pop, shardPlan{start: 0, end: total}); err != nil {
			return nil, err
		}
		return w.acc, nil
	}

	plans := planShards(pop, total, workers)
	ws := make([]*synthWorker, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, plan := range plans {
		// Shards are registered here, in shard order, so the snapshot's
		// shard list is deterministic regardless of goroutine scheduling.
		sh := cfg.Obs.NewShard(fmt.Sprintf("synth-%d", i))
		wg.Add(1)
		go func(i int, plan shardPlan, sh *obs.Shard) {
			defer wg.Done()
			fork := assigner.Fork()
			for country, n := range plan.byCountry {
				if err := fork.AdvanceCountry(country, n); err != nil {
					errs[i] = err
					return
				}
			}
			if err := fork.AdvanceUnpinned(plan.unpinned); err != nil {
				errs[i] = err
				return
			}
			w := newWorker(fork, sh)
			ws[i] = w
			errs[i] = w.run(ctx, pop, plan)
		}(i, plan, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	acc := ws[0].acc
	for _, w := range ws[1:] {
		acc.Merge(w.acc)
	}
	return acc, nil
}

// syntheticCampaignCounts derives the Table II row for a synthetic run: Q1
// from the universe (minus modeled 2013 send loss), Q2/R1 from the
// population's calibrated upstream plan, and the duration from the probe
// rate plus cluster-reload pauses.
func syntheticCampaignCounts(cfg Config, pop *population.Population, clusterSize int) analysis.CampaignCounts {
	camp := paperdata.Campaigns[cfg.Year]
	q1 := camp.Q1
	if cfg.SampleShift > 0 {
		half := uint64(1) << cfg.SampleShift >> 1
		q1 = (q1 + half) >> cfg.SampleShift
	}
	pps := cfg.pps()
	clusters := (pop.ExpectedR2 + uint64(clusterSize) - 1) / uint64(clusterSize)
	dur := time.Duration(q1/pps)*time.Second +
		time.Duration(clusters)*paperdata.ClusterReloadTime
	return analysis.CampaignCounts{
		Q1: q1, Q2: pop.ExpectedQ2, R1: pop.ExpectedQ2, R2: pop.ExpectedR2,
		Duration: dur, PacketsPerSec: pps, SampleShift: cfg.SampleShift,
	}
}

// RunSimulation executes the campaign on the discrete-event network.
func RunSimulation(cfg Config) (*Dataset, error) {
	pop, feed, _, _, err := buildDeps(cfg)
	if err != nil {
		return nil, err
	}
	return SimulatePopulation(cfg, pop, feed.DB)
}

// SimulatePopulation executes an arbitrary compiled population on the
// discrete-event network — the simulation-mode mirror of
// SynthesizePopulation, and like it usable with mixed populations and
// merged threat feeds (drift monitoring). cfg.Faults applies here: each
// sub-simulation's network is built with the plan's impairments (stateful
// pipelines forked per shard) and the prober and resolver population get
// its retransmission knobs. The campaign runs as a fixed set of private
// sub-simulations scheduled over cfg.Workers goroutines and merged in
// shard order (simshard.go); the merged dataset is byte-identical for
// every worker count.
func SimulatePopulation(cfg Config, pop *population.Population, threat *threatintel.DB) (*Dataset, error) {
	sc, err := openSimCampaign(cfg, pop, threat)
	if err != nil {
		return nil, err
	}
	tr := cfg.Obs.Tracer()
	errs := make([]error, len(sc.shards))

	// runShard executes one pending shard and, on success, persists it at
	// the shard boundary — the atomic unit of crash-safe progress. Each
	// shard index is owned by exactly one goroutine, so runs/errs writes
	// need no lock.
	runShard := func(i int) {
		sc.runs[i], errs[i] = runSimShard(sc.env, sc.shards[i], sc.obsShards[i])
		if errs[i] == nil && sc.store != nil {
			sc.store.write(i, sc.runs[i])
		}
	}

	ctx := cfg.ctx()
	sp := tr.Begin("simulate")
	workers := cfg.workers()
	if workers > len(sc.shards) {
		workers = len(sc.shards)
	}
	if workers <= 1 {
		for i := range sc.shards {
			if sc.runs[i] != nil || ctx.Err() != nil {
				continue
			}
			runShard(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					runShard(i)
				}
			}()
		}
		// Graceful shutdown: on cancellation, stop dispatching but let
		// every in-flight shard drain (and checkpoint) before returning.
	dispatch:
		for i := range sc.shards {
			if sc.runs[i] != nil {
				continue
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(jobs)
		wg.Wait()
	}
	tr.End(sp)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, run := range sc.runs {
		if run == nil {
			// Cancelled before every shard completed. Completed shards are
			// checkpointed; rerunning the same configuration resumes there.
			return nil, fmt.Errorf("core: %w: campaign stopped at a shard boundary", ErrInterrupted)
		}
	}

	sp = tr.Begin("report")
	ds, err := sc.Merge()
	tr.End(sp)
	return ds, err
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openresolver/internal/analysis"
	"openresolver/internal/core"
	"openresolver/internal/fabric"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
	"openresolver/internal/serve"
)

// smokeBaseline is the pinned FaultDigest of the loss-free 2018 cell of the
// seed-1 smoke grid (the Makefile's SMOKE_BASELINE).
const smokeBaseline = "d19bd873ab802eecb15921fb73145c7ca0ae4b5eed4d5b6aa670791ad1557d47"

// tenants are the X-Tenant values submissions alternate between.
var tenants = []string{"alpha", "beta"}

// pollEvery is how often a client polls a submitted job's state.
const pollEvery = 10 * time.Millisecond

// fleetBench is service-fleet: orserved -fabric-addr in one process — a
// serve.Manager and serve.NewHandler on a loopback listener, whose
// SimRunner is a fabric.Coordinator that Workers fabric.RunWorker
// goroutines dial over loopback — driven by an open-loop generator.
// Three of every four submissions are fresh-seed smoke-shape grids (cache
// misses that run and write artifacts); every fourth repeats a completed
// spec and must be served from the digest cache with identical bytes.
type fleetBench struct {
	o    options
	t    *tally
	dep  *deployment
	boot int

	slot uint64         // next schedule slot; slots continue across windows
	used map[int64]bool // seeds already given to a cold job
	mu   sync.Mutex
	done []completedJob // cold jobs fetched, warm-up first

	// Collected while a traced window runs.
	collecting atomic.Bool
	col        simLayers
	cells      []cellRun
	submitMS   []float64
	resultMS   []float64
	coldTraced int
	lateP90    float64
	camps      map[paperdata.Year]analysis.CampaignCounts // loss-free Table II rows
}

// completedJob is a cold job's schedule slot (-1 for the warm-up), spec
// seed and result bytes.
type completedJob struct {
	slot   int64
	seed   int64
	result []byte
}

// repeatLag is how many slots old a cold job must be before a repeat may
// target it, so that under normal load the candidates — and so the pick —
// depend on the schedule alone, not on which jobs happen to have finished.
const repeatLag = 8

// repeatTarget picks the completed spec slot p repeats: among the warm-up
// and the cold jobs at least repeatLag slots older, ordered by slot.
func (b *fleetBench) repeatTarget(p slotPlan) (completedJob, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var cands []completedJob
	for _, c := range b.done {
		if c.slot < 0 || c.slot+repeatLag <= int64(p.slot) {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return completedJob{}, errors.New("no completed spec to repeat")
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].slot < cands[j].slot })
	return cands[p.pick%uint64(len(cands))], nil
}

// cellRun is one campaign the SimRunner executed over the fabric.
type cellRun struct {
	cfg        core.Config
	loss       string
	start, end time.Time
	digest     string
}

// deployment is one booted daemon with its coordinator and workers.
type deployment struct {
	dir    string
	reg    *obs.Registry
	fab    *obs.Shard
	coord  *fabric.Coordinator
	mgr    *serve.Manager
	srv    *http.Server
	base   string
	client *http.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newFleetBench(o options, t *tally) *fleetBench {
	return &fleetBench{
		o: o, t: t,
		used:  map[int64]bool{1: true},
		camps: map[paperdata.Year]analysis.CampaignCounts{},
	}
}

// setup boots a fresh deployment in a fresh state directory, waits for
// /healthz, and runs the seed-1 smoke grid as the warm-up job, which must
// reproduce the pinned baseline digest.
func (b *fleetBench) setup() error {
	d := &deployment{dir: filepath.Join(b.o.out, fmt.Sprintf("fleet-state-%d-%d", os.Getpid(), b.boot))}
	b.boot++
	b.dep = d
	if err := os.RemoveAll(d.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	w := b.o.scale.Workers
	d.reg = obs.NewRegistry()
	d.fab = d.reg.NewShard("fabric")
	d.coord = fabric.NewCoordinator(fabric.CoordinatorConfig{Obs: d.fab})
	if err := d.coord.Listen("127.0.0.1:0"); err != nil {
		d.coord = nil
		return err
	}
	mgr, err := serve.NewManager(serve.Config{
		StateDir:     d.dir,
		MaxJobs:      2,
		Workers:      w,
		CacheEntries: 4096,
		// Generous admission: the policy is exercised on every
		// submission but never refuses at the offered rate.
		Tenant:    serve.TenantPolicy{SubmitsPerSec: 50, Burst: 50, MaxActive: 64},
		Obs:       d.reg,
		SimRunner: b.simRunner(d.coord),
	})
	if err != nil {
		return err
	}
	d.mgr = mgr
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.srv = &http.Server{Handler: serve.NewHandler(mgr)}
	d.base = "http://" + ln.Addr().String()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	for i := 0; i < w; i++ {
		d.wg.Add(1)
		go func(i int) {
			defer d.wg.Done()
			// A worker ends when teardown cancels it or closes the
			// coordinator; either is the expected exit.
			fabric.RunWorker(ctx, fabric.WorkerConfig{Addr: d.coord.Addr(), Name: fmt.Sprintf("w%d", i)})
		}(i)
	}
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: w, MaxIdleConnsPerHost: w},
		Timeout:   60 * time.Second,
	}
	if err := d.healthy(10 * time.Second); err != nil {
		return err
	}

	// Warm-up: the seed-1 smoke grid, checked against the pinned baseline.
	b.mu.Lock()
	b.done = b.done[:0]
	b.mu.Unlock()
	var r jobOutcome
	err = b.cold(d, 1, tenants[0], &r)
	if err == nil {
		err = checkBaseline(r.result)
	}
	b.t.record("service-fleet warm-up", err)
	if err == nil {
		b.mu.Lock()
		b.done = append(b.done, completedJob{slot: -1, seed: 1, result: r.result})
		b.mu.Unlock()
	}
	return nil
}

func (d *deployment) healthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after %v", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (b *fleetBench) teardown() {
	d := b.dep
	if d == nil {
		return
	}
	b.dep = nil
	if d.mgr != nil {
		d.mgr.Drain()
	}
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		d.srv.Shutdown(ctx)
		cancel()
	}
	if d.coord != nil {
		d.coord.Close()
	}
	if d.cancel != nil {
		d.cancel()
	}
	d.wg.Wait()
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	os.RemoveAll(d.dir)
}

// simRunner wraps the coordinator's RunCampaign — the function orserved
// hands its manager — to time each campaign and, during a traced window,
// keep its dataset counters.
func (b *fleetBench) simRunner(coord *fabric.Coordinator) func(core.Config, string) (*core.Dataset, error) {
	return func(cfg core.Config, loss string) (*core.Dataset, error) {
		start := time.Now()
		ds, err := coord.RunCampaign(cfg, loss)
		end := time.Now()
		if err != nil || !b.collecting.Load() {
			return ds, err
		}
		digest := core.FaultDigest(ds)
		b.mu.Lock()
		b.col.addDataset(ds, cfg.Obs)
		b.cells = append(b.cells, cellRun{cfg: cfg, loss: loss, start: start, end: end, digest: digest})
		if loss == "none" {
			b.camps[cfg.Year] = ds.Report.Campaign
		}
		b.mu.Unlock()
		return ds, nil
	}
}

// jobSpec is the smoke grid shape under seed: years 2018/2013 × loss
// none/20%, the service-fleet scale.
func (b *fleetBench) jobSpec(seed int64) []byte {
	js, _ := json.Marshal(serve.JobSpec{
		Years: []string{"2018", "2013"},
		Loss:  []string{"none", "loss:0.2"},
		Shift: b.o.scale.FleetShift,
		Seed:  seed,
	})
	return js
}

// jobOutcome is what one submission observed.
type jobOutcome struct {
	submitStart, submitEnd, doneSeen, fetchStart, fetchEnd time.Time
	view                                                   serve.JobView
	result                                                 []byte
}

// submit POSTs a job spec as tenant.
func (d *deployment) submit(spec []byte, tenant string, r *jobOutcome) (int, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(spec))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	r.submitStart = time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	r.submitEnd = time.Now()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return resp.StatusCode, json.Unmarshal(body, &r.view)
}

func (d *deployment) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// fetch GETs the job's result bytes.
func (d *deployment) fetch(r *jobOutcome) error {
	r.fetchStart = time.Now()
	body, err := d.get("/v1/jobs/" + r.view.ID + "/result")
	r.fetchEnd = time.Now()
	r.result = body
	return err
}

// cold submits a fresh spec, polls the job until it is terminal, and
// fetches its result.
func (b *fleetBench) cold(d *deployment, seed int64, tenant string, r *jobOutcome) error {
	status, err := d.submit(b.jobSpec(seed), tenant, r)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted || r.view.Cached {
		return fmt.Errorf("seed %d: fresh spec answered HTTP %d (cached=%v), want a new job", seed, status, r.view.Cached)
	}
	deadline := time.Now().Add(60 * time.Second)
	for r.view.State == serve.JobQueued || r.view.State == serve.JobRunning {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after 60 s", r.view.ID, r.view.State)
		}
		time.Sleep(pollEvery)
		body, err := d.get("/v1/jobs/" + r.view.ID)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, &r.view); err != nil {
			return err
		}
	}
	r.doneSeen = time.Now()
	if r.view.State != serve.JobDone {
		return fmt.Errorf("job %s ended %s: %s", r.view.ID, r.view.State, r.view.Error)
	}
	return d.fetch(r)
}

// matrix is the part of a result matrix the checks read.
type matrix struct {
	Cells []struct {
		Year   string `json:"year"`
		Loss   string `json:"loss"`
		Digest string `json:"digest"`
		Q1     uint64 `json:"q1"`
	} `json:"cells"`
}

func parseMatrix(result []byte) (*matrix, error) {
	var m matrix
	if err := json.Unmarshal(result, &m); err != nil {
		return nil, fmt.Errorf("result matrix: %w", err)
	}
	if len(m.Cells) != 4 {
		return nil, fmt.Errorf("result matrix has %d cells, want 4", len(m.Cells))
	}
	return &m, nil
}

func checkBaseline(result []byte) error {
	m, err := parseMatrix(result)
	if err != nil {
		return err
	}
	for _, c := range m.Cells {
		if c.Year == "2018" && c.Loss == "none" {
			if c.Digest != smokeBaseline {
				return fmt.Errorf("seed-1 (2018, none) digest %.16s, want pinned %.16s", c.Digest, smokeBaseline)
			}
			return nil
		}
	}
	return errors.New("seed-1 result has no (2018, none) cell")
}

// slotPlan is one scheduled submission, derived from the workload seed
// and the slot number alone.
type slotPlan struct {
	slot   uint64
	due    time.Duration // offset from the window start
	repeat bool          // every fourth slot repeats a completed spec
	pick   uint64        // which completed spec a repeat takes (mod count)
	tenant string
}

func (b *fleetBench) plan(slot uint64, due time.Duration) slotPlan {
	h := uint64(deriveSeed(b.o.seed, slot|1<<40))
	return slotPlan{
		slot: slot, due: due,
		repeat: slot%4 == 3,
		pick:   h >> 8,
		tenant: tenants[h%uint64(len(tenants))],
	}
}

// coldSeed gives slot a campaign seed no earlier cold job used.
func (b *fleetBench) coldSeed(slot uint64) int64 {
	for k := uint64(0); ; k++ {
		s := deriveSeed(b.o.seed, slot|(k+2)<<40)
		if !b.used[s] {
			b.used[s] = true
			return s
		}
	}
}

// window runs the open loop: one submission every 1/FleetRate seconds
// until d has passed, each timed from its due time; then it waits for
// every submission to finish.
func (b *fleetBench) window(d time.Duration, tr *tracer) windowStats {
	dep := b.dep
	if tr != nil {
		b.collecting.Store(true)
		defer b.collecting.Store(false)
	}
	period := time.Duration(float64(time.Second) / b.o.scale.FleetRate)
	start := time.Now()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		cold []float64
		ops  [][2]time.Time
		hits []float64
		late []float64
		q1   uint64
		nrep int
		tot  int
	)
	type jobSpan struct{ op, id int }
	jobSpans := map[int64]jobSpan{} // cold seed → its serve.job span, for fabric spans
	for k := 0; ; k++ {
		due := time.Duration(k) * period
		if due >= d {
			break
		}
		p := b.plan(b.slot, due)
		b.slot++
		var seed int64
		if !p.repeat {
			seed = b.coldSeed(p.slot)
		}
		tot++
		if p.repeat {
			nrep++
		}
		time.Sleep(time.Until(start.Add(due)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			dueAt := start.Add(p.due)
			var r jobOutcome
			var err error
			var target completedJob
			if p.repeat {
				if target, err = b.repeatTarget(p); err == nil {
					err = b.hit(dep, target, p.tenant, &r)
				}
			} else {
				err = b.cold(dep, seed, p.tenant, &r)
			}
			var m *matrix
			if err == nil && !p.repeat {
				m, err = parseMatrix(r.result)
			}
			b.t.record("service-fleet job", err)
			mu.Lock()
			defer mu.Unlock()
			if !r.submitStart.IsZero() {
				late = append(late, ms(r.submitStart.Sub(dueAt)))
			}
			if err != nil {
				return
			}
			if p.repeat {
				hits = append(hits, r.fetchEnd.Sub(r.submitStart).Seconds())
			} else {
				cold = append(cold, r.fetchEnd.Sub(dueAt).Seconds())
				ops = append(ops, [2]time.Time{r.submitStart, r.fetchEnd})
				for _, c := range m.Cells {
					q1 += c.Q1
				}
				b.mu.Lock()
				b.done = append(b.done, completedJob{slot: int64(p.slot), seed: seed, result: r.result})
				b.mu.Unlock()
			}
			if tr != nil {
				op := int(p.slot)
				root := tr.add(op, -1, "op", p.tenant, dueAt, r.fetchEnd)
				tr.add(op, root, "loadgen.late", "", dueAt, r.submitStart)
				tr.add(op, root, "serve.submit", "", r.submitStart, r.submitEnd)
				if !p.repeat {
					jobSpans[seed] = jobSpan{op, tr.add(op, root, "serve.job", r.view.ID, r.submitEnd, r.doneSeen)}
					b.coldTraced++
				}
				tr.add(op, root, "serve.result", "", r.fetchStart, r.fetchEnd)
				b.mu.Lock()
				b.submitMS = append(b.submitMS, ms(r.submitEnd.Sub(r.submitStart)))
				b.resultMS = append(b.resultMS, ms(r.fetchEnd.Sub(r.fetchStart)))
				b.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ws := windowStats{Latencies: cold, Probes: q1, Executed: len(cold), Ops: ops, Wall: time.Since(start)}
	if tr != nil {
		// Each fabric campaign is a child of its job's serve.job span.
		b.mu.Lock()
		for _, c := range b.cells {
			if js, ok := jobSpans[c.cfg.Seed]; ok {
				tr.add(js.op, js.id, "fabric.campaign", fmt.Sprintf("%d/%s", c.cfg.Year, c.loss), c.start, c.end)
			}
		}
		b.mu.Unlock()
	}
	lateTail := percentile(late, 90)
	ws.Notes = append(ws.Notes,
		fmt.Sprintf("%-28s %16.6g %-6s  n=%d hits", "hit_p50_ms", median(hits)*1e3, "ms", len(hits)),
		fmt.Sprintf("%-28s %16.6g %-6s  n=%d submissions", "loadgen.late_p90_ms", lateTail, "ms", len(late)),
		fmt.Sprintf("loadgen: open loop, offered %.3g submissions/s over %v, %d submitted, repeat share %.3g (%d repeats), %d tenants, %d HTTP connections",
			b.o.scale.FleetRate, d, tot, float64(nrep)/float64(max(tot, 1)), nrep, len(tenants), b.o.scale.Workers))
	if tr != nil {
		b.lateP90 = lateTail
	}
	return ws
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := nearestRank(sorted(xs), p)
	return v
}

// hit resubmits a completed spec; it must be served from the digest cache
// with the original's bytes.
func (b *fleetBench) hit(d *deployment, target completedJob, tenant string, r *jobOutcome) error {
	status, err := d.submit(b.jobSpec(target.seed), tenant, r)
	if err != nil {
		return err
	}
	if status != http.StatusOK || !r.view.Cached || r.view.State != serve.JobDone {
		return fmt.Errorf("repeat of seed %d answered HTTP %d state %s cached=%v, want a cache hit",
			target.seed, status, r.view.State, r.view.Cached)
	}
	if err := d.fetch(r); err != nil {
		return err
	}
	if !bytes.Equal(r.result, target.result) {
		return fmt.Errorf("cache hit for seed %d returned different bytes than the original run", target.seed)
	}
	return nil
}

// layers fills the fabric, sweep, serve, netsim, prober and core metrics
// of the traced window. The core seams are measured by re-running a
// sample of the window's cells locally through the shard path, which
// also gives the fabric's overhead against a local core.RunSimulation and
// checks both against the fabric's digest.
func (b *fleetBench) layers(m map[string]float64) error {
	d := b.dep
	b.mu.Lock()
	cells := append([]cellRun(nil), b.cells...)
	b.col.ops = b.coldTraced
	b.mu.Unlock()

	var campaign []float64
	for _, c := range cells {
		campaign = append(campaign, ms(c.end.Sub(c.start)))
	}
	m["fabric.campaign_ms"] = median(campaign)
	merged := d.reg.Merged()
	jobs := merged.Counter(obs.CServeCompleted)
	cellsDone := merged.Counter(obs.CServeCellsDone)
	leases := d.fab.Counter(obs.CFabricLeases)
	if cellsDone > 0 {
		m["fabric.leases_per_cell"] = float64(leases) / float64(cellsDone)
	}
	if leases > 0 {
		m["fabric.requeue_ratio"] = float64(d.fab.Counter(obs.CFabricRequeued)) / float64(leases)
	}
	if jobs > 0 {
		m["fabric.envelope_mb_per_job"] = float64(d.fab.Counter(obs.CFabricEnvelopeBytes)) / 1e6 / float64(jobs)
		m["sweep.artifact_kb_per_job"] = float64(dirBytes(d.dir)) / 1e3 / float64(jobs)
	}
	m["serve.submit_ms"] = median(b.submitMS)
	m["serve.result_ms"] = median(b.resultMS)
	if sub := merged.Counter(obs.CServeSubmitted); sub > 0 {
		m["serve.cache_hit_ratio"] = float64(merged.Counter(obs.CServeCacheHits)) / float64(sub)
	}
	m["serve.admission_denied"] = float64(merged.Counter(obs.CServeDenied))
	m["loadgen.late_p90_ms"] = b.lateP90

	// Local re-runs of up to four sampled cells, one per grid position.
	sample := map[string]cellRun{}
	for _, c := range cells {
		k := fmt.Sprintf("%d/%s", c.cfg.Year, c.loss)
		if _, ok := sample[k]; !ok {
			sample[k] = c
		}
	}
	var ratios []float64
	for _, k := range sortedKeys(sample) {
		c := sample[k]
		cfg := c.cfg
		cfg.Obs, cfg.Ctx, cfg.Checkpoints = nil, nil, core.CheckpointPlan{}
		start := time.Now()
		ds, err := core.RunSimulation(cfg)
		local := time.Since(start)
		if err == nil && core.FaultDigest(ds) != c.digest {
			err = fmt.Errorf("cell %s seed %d: local digest differs from the fabric's", k, cfg.Seed)
		}
		b.t.record("service-fleet local cell", err)
		if err != nil {
			continue
		}
		ratios = append(ratios, float64(c.end.Sub(c.start))/float64(local))
		ct, err := runShardPath(cfg, b.o.scale.Workers, nil, 0, -1, k)
		if err == nil && core.FaultDigest(ct.ds) != c.digest {
			err = fmt.Errorf("cell %s seed %d: shard-path digest differs from the fabric's", k, cfg.Seed)
		}
		b.t.record("service-fleet shard-path cell", err)
		if err == nil {
			b.col.campaigns = append(b.col.campaigns, ct)
		}
	}
	m["fabric.overhead_ratio"] = median(ratios)
	b.col.fill(m)

	return replayLayers(m, b.o.scale.FleetShift, 1, b.camps)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

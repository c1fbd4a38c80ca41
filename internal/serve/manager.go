package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"openresolver/internal/core"
	"openresolver/internal/obs"
	"openresolver/internal/sweep"
)

// The manager's error taxonomy; the router maps each to an HTTP status
// (API.md documents the pairing).
var (
	// ErrAdmission rejects a submission under tenant admission control (429).
	ErrAdmission = errors.New("admission denied")
	// ErrDraining rejects submissions while the daemon shuts down (503).
	ErrDraining = errors.New("daemon is draining")
	// ErrNotFound reports an unknown job ID (404).
	ErrNotFound = errors.New("no such job")
	// ErrNotDone rejects a result fetch before the job completes (409).
	ErrNotDone = errors.New("job has not completed")
	// ErrNotResumable rejects resume on a job that is not in a resumable
	// state (409). Only cancelled jobs resume; done and failed are final.
	ErrNotResumable = errors.New("job is not resumable")
)

// JobState is a job's lifecycle position. Transitions: queued → running →
// {done, failed, cancelled}; cancelled → queued again via resume. Done and
// failed are terminal.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Config parameterizes the job manager.
type Config struct {
	// StateDir holds per-spec artifact and checkpoint directories. Job
	// work is keyed by spec (not by job ID), so partial work survives the
	// process: a resumed or resubmitted spec reuses completed cell
	// artifacts and sub-cell shard checkpoints exactly like orsweep
	// -out/-resume. Empty means a fresh temporary directory.
	StateDir string
	// MaxJobs bounds how many jobs execute concurrently (0 = 2).
	// Submissions beyond it queue in order.
	MaxJobs int
	// Workers is the total cell-pool budget shared by running jobs
	// (0 = all cores). Each running job gets Workers/MaxJobs pool workers
	// (minimum 1) — the same compose-against-one-budget rule orsweep
	// applies between cells and sub-simulations. The split never affects
	// result bytes, only scheduling.
	Workers int
	// Tenant is the per-tenant admission policy (zero value: no limits).
	Tenant TenantPolicy
	// CacheEntries bounds the completed-result digest cache (0 = 64).
	CacheEntries int
	// Obs, when non-nil, receives the daemon's own counters (jobs
	// submitted/completed/failed/cancelled, cache hits, admissions
	// denied, cells done). Each job additionally runs against a private
	// registry serving its progress endpoints.
	Obs *obs.Registry
	// Log receives job lifecycle notes and each job's sweep log. Nil
	// discards them.
	Log io.Writer
	// SimRunner, when non-nil, is passed through to every job's sweep:
	// pure-year sim cells dispatch over it instead of running in-process
	// (sweep.RunConfig.SimRunner). orserved wires a fabric coordinator's
	// RunCampaign here so API jobs fan out to remote workers; result
	// bytes are pinned identical either way.
	SimRunner func(cfg core.Config, lossSpec string) (*core.Dataset, error)
	// now is the admission clock; tests inject a fake. Nil = time.Now.
	now func() time.Time
}

// Job is the manager's record of one submission. All fields are guarded
// by the manager's mutex; handlers read them through JobView snapshots.
type job struct {
	id      string
	tenant  string
	specKey string
	spec    *sweep.Spec
	cells   int

	state     JobState
	cached    bool
	errMsg    string
	runs      int // times the sweep engine was dispatched for this job
	completed []sweep.Result
	digests   []string
	matrixJS  []byte
	matrixTxt []byte
	reg       *obs.Registry
	cancel    context.CancelFunc
}

// JobView is the JSON surface of a job: what GET /v1/jobs/{id} returns.
type JobView struct {
	ID      string   `json:"id"`
	Tenant  string   `json:"tenant"`
	SpecKey string   `json:"spec_key"`
	State   JobState `json:"state"`
	// Cached marks a job served from the digest cache without a run.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure reason of a failed job.
	Error string `json:"error,omitempty"`
	// Cells is the grid size; CellsDone counts completed cells so far.
	Cells     int `json:"cells"`
	CellsDone int `json:"cells_done"`
	// Digests lists every cell's core.FaultDigest in grid order once the
	// job is done — directly comparable with the golden constants and
	// with a standalone orsweep/orsurvey run of the same configuration.
	Digests []string `json:"digests,omitempty"`
}

// Manager owns the job table, the shared worker budget, tenant admission,
// and the digest cache. It is safe for concurrent use by HTTP handlers.
type Manager struct {
	cfg      Config
	stateDir string
	reg      *obs.Registry
	sh       *obs.Shard
	limiter  *tenantLimiter
	cache    *digestCache
	sem      chan struct{}
	baseCtx  context.Context
	stop     context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string          // submission order, for List
	active   map[string]string // specKey → job ID while queued/running
	seq      int
	draining bool
	wg       sync.WaitGroup
}

// NewManager builds a manager and its state directory.
func NewManager(cfg Config) (*Manager, error) {
	dir := cfg.StateDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "orserved-"); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 2
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:      cfg,
		stateDir: dir,
		reg:      reg,
		sh:       reg.NewShard("serve"),
		limiter:  newTenantLimiter(cfg.Tenant, cfg.now),
		cache:    newDigestCache(cfg.CacheEntries),
		sem:      make(chan struct{}, maxJobs),
		baseCtx:  ctx,
		stop:     cancel,
		jobs:     make(map[string]*job),
		active:   make(map[string]string),
	}, nil
}

// Registry is the daemon's own observability registry (never nil); the
// router serves it at /metrics.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// StateDir is where job artifacts and checkpoints live.
func (m *Manager) StateDir() string { return m.stateDir }

// perJobWorkers splits the shared worker budget across the job pool.
func (m *Manager) perJobWorkers() int {
	budget := m.cfg.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	per := budget / cap(m.sem)
	if per < 1 {
		per = 1
	}
	return per
}

// specDir is the artifact/checkpoint directory for one spec. Content
// addressing by spec key (not job ID) is what makes partial work durable:
// any job of the same spec — a resume, a resubmission, or a run after a
// daemon restart — finds the completed cell artifacts and sub-cell shard
// checkpoints of every earlier attempt, and the sweep engine's
// self-validating artifact/checkpoint headers guarantee stale state from
// a colliding directory is detected and re-run rather than trusted.
func (m *Manager) specDir(specKey string) string {
	return filepath.Join(m.stateDir, "spec-"+specKey[:16])
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Log != nil {
		fmt.Fprintf(m.cfg.Log, format, args...)
	}
}

// Submit validates and admits one job. The fast paths return without
// touching the campaign engines: an identical spec already completed is
// served from the digest cache as an instantly-done job, and an identical
// spec currently queued or running is deduplicated onto the live job. A
// fresh spec is charged against the tenant's admission budget and queued.
func (m *Manager) Submit(tenant string, js *JobSpec) (JobView, error) {
	if tenant == "" {
		tenant = "default"
	}
	spec, cells, err := js.Compile()
	if err != nil {
		return JobView{}, err
	}
	key := SpecKey(spec, cells)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return JobView{}, ErrDraining
	}
	m.sh.Inc(obs.CServeSubmitted)

	if e := m.cache.get(key); e != nil {
		// Digest-cache hit: a completed run of this exact grid exists, so
		// the job is born done, carrying the original run's bytes. Cache
		// hits bypass the token bucket — they consume no simulation
		// capacity, which is what admission control protects.
		j := m.newJobLocked(tenant, key, spec, len(cells))
		j.state = JobDone
		j.cached = true
		j.digests = e.Digests
		j.matrixJS = e.MatrixJSON
		j.matrixTxt = e.MatrixText
		m.sh.Inc(obs.CServeCacheHits)
		m.logf("orserved: job %s (%s) served from digest cache (spec %.12s, from job %s)\n",
			j.id, tenant, key, e.JobID)
		return j.view(), nil
	}
	if id, ok := m.active[key]; ok {
		// The same grid is already in flight; hand back the live job
		// rather than running the identical simulation twice.
		m.logf("orserved: submission of spec %.12s deduplicated onto job %s\n", key, id)
		return m.jobs[id].view(), nil
	}
	if err := m.limiter.admit(tenant); err != nil {
		m.sh.Inc(obs.CServeDenied)
		return JobView{}, err
	}

	j := m.newJobLocked(tenant, key, spec, len(cells))
	j.state = JobQueued
	m.active[key] = j.id
	m.wg.Add(1)
	go m.run(j)
	m.logf("orserved: job %s (%s) queued: %d cells, spec %.12s\n", j.id, tenant, len(cells), key)
	return j.view(), nil
}

// newJobLocked allocates and registers a job. Caller holds m.mu.
func (m *Manager) newJobLocked(tenant, key string, spec *sweep.Spec, cells int) *job {
	m.seq++
	j := &job{
		id:      fmt.Sprintf("j%06d", m.seq),
		tenant:  tenant,
		specKey: key,
		spec:    spec,
		cells:   cells,
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	return j
}

// run executes one dispatch of a job: waits for a pool slot, runs the
// sweep with cancellation and checkpointing wired, and folds the outcome
// back into the job table (and, on success, the digest cache).
func (m *Manager) run(j *job) {
	defer m.wg.Done()

	// A drain that lands while the job is still queued cancels it before
	// it ever occupies a slot; its (empty) spec directory still makes a
	// later resume behave like a cold run.
	select {
	case m.sem <- struct{}{}:
	case <-m.baseCtx.Done():
		m.finish(j, nil, core.ErrInterrupted)
		return
	}
	defer func() { <-m.sem }()

	m.mu.Lock()
	if j.state != JobQueued { // cancelled while queued
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.state = JobRunning
	j.cancel = cancel
	j.runs++
	j.completed = nil
	j.reg = obs.NewRegistry()
	reg := j.reg
	spec := j.spec
	m.mu.Unlock()
	defer cancel()

	rc := sweep.RunConfig{
		Spec:        spec,
		PoolWorkers: m.perJobWorkers(),
		ArtifactDir: m.specDir(j.specKey),
		// Always resume: artifacts and checkpoints are self-validating,
		// so a cold spec directory just runs everything while any earlier
		// attempt's completed cells load instead of re-running.
		Resume: true,
		Obs:    reg,
		Log:    m.cfg.Log,
		Ctx:    ctx,
		OnCell: func(r sweep.Result) {
			m.sh.Inc(obs.CServeCellsDone)
			m.mu.Lock()
			j.completed = append(j.completed, r)
			m.mu.Unlock()
		},
		SimRunner: m.cfg.SimRunner,
	}
	results, err := sweep.Run(rc)
	m.finish(j, results, err)
}

// finish moves a job to its terminal state under the manager lock. A job
// already terminal (cancelled while queued, then reaped by a drain) is
// left alone — its admission slot was released when it went terminal.
func (m *Manager) finish(j *job, results []sweep.Result, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state != JobQueued && j.state != JobRunning {
		return
	}
	delete(m.active, j.specKey)
	m.limiter.release(j.tenant)
	j.cancel = nil
	switch {
	case err == nil:
		matrix := sweep.BuildMatrix(j.spec, results)
		var txt bytes.Buffer
		if rerr := matrix.RenderText(&txt); rerr != nil {
			err = rerr
			break
		}
		js, jerr := matrix.JSON()
		if jerr != nil {
			err = jerr
			break
		}
		j.state = JobDone
		j.matrixTxt = txt.Bytes()
		j.matrixJS = js
		j.digests = make([]string, len(results))
		for i := range results {
			j.digests[i] = results[i].Digest
		}
		m.cache.put(&cacheEntry{
			SpecKey:    j.specKey,
			JobID:      j.id,
			Digests:    j.digests,
			MatrixJSON: j.matrixJS,
			MatrixText: j.matrixTxt,
		})
		m.sh.Inc(obs.CServeCompleted)
		m.logf("orserved: job %s done (%d cells)\n", j.id, len(results))
		return
	case errors.Is(err, core.ErrInterrupted):
		// Cancelled (by the client or a drain) at a shard boundary.
		// Completed cells hold artifacts and the interrupted cell holds
		// shard checkpoints under the spec directory, so resume picks up
		// exactly where this dispatch stopped.
		j.state = JobCancelled
		m.sh.Inc(obs.CServeCancelled)
		m.logf("orserved: job %s cancelled at a shard boundary (%d of %d cells complete)\n",
			j.id, len(j.completed), j.cells)
		return
	}
	j.state = JobFailed
	j.errMsg = err.Error()
	m.sh.Inc(obs.CServeFailed)
	m.logf("orserved: job %s failed: %v\n", j.id, err)
}

// view renders the job under the manager lock.
func (j *job) view() JobView {
	return JobView{
		ID:        j.id,
		Tenant:    j.tenant,
		SpecKey:   j.specKey,
		State:     j.state,
		Cached:    j.cached,
		Error:     j.errMsg,
		Cells:     j.cells,
		CellsDone: j.cellsDone(),
		Digests:   j.digests,
	}
}

// cellsDone counts completed cells for the view: streaming results while
// the job runs, the full grid once done.
func (j *job) cellsDone() int {
	if j.state == JobDone {
		return j.cells
	}
	return len(j.completed)
}

// Get returns one job.
func (m *Manager) Get(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return j.view(), nil
}

// List returns every job in submission order.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].view())
	}
	return out
}

// Cancel stops a queued or running job cooperatively: the sweep stops
// dispatching cells and the in-flight cell drains to its next shard
// boundary, checkpointing under the spec directory. Cancelling a job in a
// terminal state is a no-op (the terminal state wins).
func (m *Manager) Cancel(id string) (JobView, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobView{}, ErrNotFound
	}
	var cancel context.CancelFunc
	switch j.state {
	case JobQueued:
		// Not yet dispatched onto the pool: cancel directly.
		j.state = JobCancelled
		delete(m.active, j.specKey)
		m.limiter.release(j.tenant)
		m.sh.Inc(obs.CServeCancelled)
		m.logf("orserved: job %s cancelled while queued\n", j.id)
	case JobRunning:
		cancel = j.cancel
	}
	m.mu.Unlock()
	if cancel != nil {
		cancel() // finish() records the terminal state when the drain lands
	}
	v, err := m.Get(id)
	return v, err
}

// Resume re-dispatches a cancelled job. The new dispatch runs over the
// same spec directory, so completed cells load from their artifacts and
// the interrupted cell restores its checkpointed shards — the resumed
// result is byte-identical to an uninterrupted run (the sweep and core
// crash tests pin that equality; the lifecycle test here re-checks it at
// the API surface).
func (m *Manager) Resume(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	if m.draining {
		return JobView{}, ErrDraining
	}
	if j.state != JobCancelled {
		return JobView{}, fmt.Errorf("%w: job %s is %s", ErrNotResumable, id, j.state)
	}
	if _, busy := m.active[j.specKey]; busy {
		return JobView{}, fmt.Errorf("%w: spec already active again", ErrNotResumable)
	}
	if err := m.limiter.admit(j.tenant); err != nil {
		m.sh.Inc(obs.CServeDenied)
		return JobView{}, err
	}
	j.state = JobQueued
	m.active[j.specKey] = j.id
	m.wg.Add(1)
	go m.run(j)
	m.logf("orserved: job %s resumed\n", j.id)
	return j.view(), nil
}

// Result returns the completed matrix bytes — JSON and text renderings,
// exactly the bytes orsweep would print for the same spec.
func (m *Manager) Result(id string) (jsonBytes, textBytes []byte, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	if j.state != JobDone {
		return nil, nil, fmt.Errorf("%w: job %s is %s", ErrNotDone, id, j.state)
	}
	return j.matrixJS, j.matrixTxt, nil
}

// Progress renders the partial matrix over the cells completed so far (in
// cell order — completion order never shows). Done jobs render the full
// matrix; jobs with no completed cells yet render an empty one.
func (m *Manager) Progress(id string) (*sweep.Matrix, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	completed := make([]sweep.Result, len(j.completed))
	copy(completed, j.completed)
	sort.Slice(completed, func(a, b int) bool {
		return completed[a].Cell.Index < completed[b].Cell.Index
	})
	return sweep.BuildMatrix(j.spec, completed), nil
}

// JobRegistry returns the job's private observability registry for the
// current (or last) dispatch — the mid-run snapshot path behind
// GET /v1/jobs/{id}/metrics. Nil when the job never ran (queued, or born
// from the digest cache).
func (m *Manager) JobRegistry(id string) (*obs.Registry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.reg, nil
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain shuts the manager down gracefully: new submissions and resumes
// are refused, every queued and running job is cancelled cooperatively —
// in-flight cells stop at their next shard boundary and checkpoint under
// the state directory — and Drain returns once every job goroutine has
// landed. Interrupted work is not lost: the state directory carries cell
// artifacts and shard checkpoints keyed by spec, so a restarted daemon
// resumes any resubmitted spec from where the drain stopped it.
func (m *Manager) Drain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
}

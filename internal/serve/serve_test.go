package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"openresolver/internal/obs"
	"openresolver/internal/sweep"
)

// faultGolden mirrors internal/core's pinned adverse-network digest (and
// internal/sweep's copy). TestServeGoldenDigest submits the identical
// campaign through the HTTP API and must reproduce it bit-for-bit.
const faultGolden = "e0ded77dface81a22b5a7685afab9b7014aadb9cd6c243c24295dc23fc13f9df"

// smallJob is the API form of internal/sweep's fast 2×2 shift-16 fixture:
// pristine vs lossy network, single-shot vs retrying prober.
func smallJob() *JobSpec {
	return &JobSpec{
		Loss:  []string{"none", "loss:0.3"},
		Retry: []string{"0", "2+adaptive"},
		Shift: 16,
		Seed:  1,
	}
}

// newTestServer builds a manager plus its HTTP surface on a test listener.
func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		m.Drain()
	})
	return m, ts
}

// do issues one API request and decodes the JSON body into out (when
// non-nil), returning the status code.
func do(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// waitState polls a job until it reaches want (or any terminal state).
func waitState(t *testing.T, base, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var v JobView
		if code := do(t, "GET", base+"/v1/jobs/"+id, nil, &v); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if v.State == want {
			return v
		}
		switch v.State {
		case JobDone, JobFailed, JobCancelled:
			t.Fatalf("job %s reached terminal state %s (error %q), want %s", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fetch grabs a raw body (result/progress endpoints).
func fetch(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestServeByteIdentityAndCache is the tentpole contract end to end: a job
// submitted over the API produces byte-identical result tables (text and
// JSON) to the same spec run directly through the sweep engine — the
// orsweep path — and an identical resubmission is served from the digest
// cache, returning the same bytes without re-running a single cell.
func TestServeByteIdentityAndCache(t *testing.T) {
	// Reference: the spec run the way orsweep runs it.
	refSpec, _, err := smallJob().Compile()
	if err != nil {
		t.Fatal(err)
	}
	refResults, err := sweep.Run(sweep.RunConfig{Spec: refSpec, PoolWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	refMatrix := sweep.BuildMatrix(refSpec, refResults)
	var refText bytes.Buffer
	if err := refMatrix.RenderText(&refText); err != nil {
		t.Fatal(err)
	}
	refJSON, err := refMatrix.JSON()
	if err != nil {
		t.Fatal(err)
	}

	mgr, ts := newTestServer(t, Config{MaxJobs: 2})
	var v JobView
	if code := do(t, "POST", ts.URL+"/v1/jobs", smallJob(), &v); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if v.Cells != 4 {
		t.Fatalf("job has %d cells, want 4", v.Cells)
	}
	done := waitState(t, ts.URL, v.ID, JobDone)
	if done.CellsDone != 4 || len(done.Digests) != 4 {
		t.Fatalf("done view: cells_done=%d digests=%d, want 4 and 4", done.CellsDone, len(done.Digests))
	}
	for i := range refResults {
		if done.Digests[i] != refResults[i].Digest {
			t.Errorf("cell %d digest diverged from the direct run:\n api   %s\n sweep %s",
				i, done.Digests[i], refResults[i].Digest)
		}
	}

	code, apiJSON := fetch(t, ts.URL+"/v1/jobs/"+v.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	code, apiText := fetch(t, ts.URL+"/v1/jobs/"+v.ID+"/result?format=text")
	if code != http.StatusOK {
		t.Fatalf("result?format=text: status %d", code)
	}
	if !bytes.Equal(apiJSON, refJSON) {
		t.Errorf("API JSON matrix diverged from the orsweep rendering:\n--- api\n%s--- direct\n%s", apiJSON, refJSON)
	}
	if !bytes.Equal(apiText, refText.Bytes()) {
		t.Errorf("API text matrix diverged from the orsweep rendering:\n--- api\n%s--- direct\n%s", apiText, refText.Bytes())
	}

	// A done job's progress endpoint renders the full matrix.
	code, progress := fetch(t, ts.URL+"/v1/jobs/"+v.ID+"/progress?format=text")
	if code != http.StatusOK || !bytes.Equal(progress, refText.Bytes()) {
		t.Errorf("done job's progress (status %d) is not the full matrix", code)
	}

	// Resubmit the identical grid — spelled as spec text this time, to
	// prove the cache keys on the expanded grid, not the wire encoding.
	textForm := &JobSpec{SpecText: strings.Join([]string{
		"loss none loss:0.3",
		"retry 0 2+adaptive",
		"shift 16",
		"seed 1",
	}, "\n")}
	var hit JobView
	if code := do(t, "POST", ts.URL+"/v1/jobs", textForm, &hit); code != http.StatusOK {
		t.Fatalf("cached resubmission: status %d, want 200", code)
	}
	if !hit.Cached || hit.State != JobDone || hit.ID == v.ID {
		t.Fatalf("resubmission not served from cache: %+v", hit)
	}
	code, cachedJSON := fetch(t, ts.URL+"/v1/jobs/"+hit.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(cachedJSON, apiJSON) {
		t.Error("cached result bytes differ from the original run's")
	}
	merged := mgr.Registry().Merged()
	if n := merged.Counter(obs.CServeCacheHits); n != 1 {
		t.Errorf("serve.cache_hits = %d, want 1", n)
	}
	if n := merged.Counter(obs.CServeCompleted); n != 1 {
		t.Errorf("serve.completed = %d, want 1 (the cache hit must not re-run)", n)
	}
	// The cached job never dispatched, so it has no run registry and no
	// sim counters — the strongest evidence nothing was re-simulated.
	reg, err := mgr.JobRegistry(hit.ID)
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		t.Error("cache-hit job owns a run registry; was it dispatched?")
	}
}

// TestServeGoldenDigest submits core's pinned adverse-network campaign
// (2018, shift 14, stacked impairments, full retransmission machinery)
// through the HTTP API: the digest the service reports must equal the
// golden constant the core and sweep suites pin.
func TestServeGoldenDigest(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 1})
	js := &JobSpec{
		Years: []string{"2018"},
		Loss:  []string{"ge:0.02,0.3,0.05,0.9;dup:0.05;reorder:0.1,30ms;corrupt:0.02"},
		Retry: []string{"2+adaptive+backoff"},
		Shift: 14,
		Seed:  1,
	}
	var v JobView
	if code := do(t, "POST", ts.URL+"/v1/jobs", js, &v); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitState(t, ts.URL, v.ID, JobDone)
	if len(done.Digests) != 1 || done.Digests[0] != faultGolden {
		t.Errorf("API campaign diverged from the golden digest\n got %v\nwant [%s]", done.Digests, faultGolden)
	}
}

// TestServeCancelResume drives the checkpointed-cancel path over HTTP: a
// running job cancelled mid-cell stops at a shard boundary (leaving shard
// checkpoints in the state directory), reports resumable state, and a
// resume completes it with results byte-identical to an uninterrupted run.
func TestServeCancelResume(t *testing.T) {
	refSpec, _, err := smallJob().Compile()
	if err != nil {
		t.Fatal(err)
	}
	refResults, err := sweep.Run(sweep.RunConfig{Spec: refSpec, PoolWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	refText, refJSON := renderRef(t, refSpec, refResults)

	stateDir := t.TempDir()
	_, ts := newTestServer(t, Config{MaxJobs: 1, StateDir: stateDir})
	var v JobView
	if code := do(t, "POST", ts.URL+"/v1/jobs", smallJob(), &v); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Cancel as soon as the first shard checkpoint lands: mid-cell,
	// between shard boundaries (the same trigger the sweep test uses).
	deadline := time.Now().Add(time.Minute)
	for {
		if m, _ := filepath.Glob(filepath.Join(stateDir, "spec-*", "ckpt-*", "shard-*.ckpt")); len(m) > 0 {
			break
		}
		var cur JobView
		do(t, "GET", ts.URL+"/v1/jobs/"+v.ID, nil, &cur)
		if cur.State == JobDone {
			t.Skip("job completed before cancellation landed")
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard checkpoint appeared")
		}
		time.Sleep(200 * time.Microsecond)
	}
	var cancelled JobView
	if code := do(t, "POST", ts.URL+"/v1/jobs/"+v.ID+"/cancel", nil, &cancelled); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	// The drain is cooperative; wait for the terminal state.
	deadline = time.Now().Add(2 * time.Minute)
	for cancelled.State == JobRunning || cancelled.State == JobQueued {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", cancelled.State)
		}
		time.Sleep(2 * time.Millisecond)
		do(t, "GET", ts.URL+"/v1/jobs/"+v.ID, nil, &cancelled)
	}
	if cancelled.State == JobDone {
		t.Skip("job outran the cancel; nothing to resume")
	}
	if cancelled.State != JobCancelled {
		t.Fatalf("cancelled job is %s, want %s", cancelled.State, JobCancelled)
	}

	// A result fetch on a cancelled job is a 409 ...
	if code, _ := fetch(t, ts.URL+"/v1/jobs/"+v.ID+"/result"); code != http.StatusConflict {
		t.Errorf("result of cancelled job: status %d, want 409", code)
	}
	// ... but progress renders the cells completed so far.
	if code, _ := fetch(t, ts.URL+"/v1/jobs/"+v.ID+"/progress"); code != http.StatusOK {
		t.Errorf("progress of cancelled job: status %d, want 200", code)
	}

	var resumed JobView
	if code := do(t, "POST", ts.URL+"/v1/jobs/"+v.ID+"/resume", nil, &resumed); code != http.StatusAccepted {
		t.Fatalf("resume: status %d", code)
	}
	done := waitState(t, ts.URL, v.ID, JobDone)
	for i := range refResults {
		if done.Digests[i] != refResults[i].Digest {
			t.Errorf("resumed cell %d digest diverged: got %s want %s", i, done.Digests[i], refResults[i].Digest)
		}
	}
	code, apiJSON := fetch(t, ts.URL+"/v1/jobs/"+v.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(apiJSON, refJSON) {
		t.Error("resumed job's JSON matrix diverged from the uninterrupted run")
	}
	code, apiText := fetch(t, ts.URL+"/v1/jobs/"+v.ID+"/result?format=text")
	if code != http.StatusOK || !bytes.Equal(apiText, refText) {
		t.Error("resumed job's text matrix diverged from the uninterrupted run")
	}
	// Resuming a done job is refused.
	if code := do(t, "POST", ts.URL+"/v1/jobs/"+v.ID+"/resume", nil, nil); code != http.StatusConflict {
		t.Errorf("resume of done job: status %d, want 409", code)
	}
}

func renderRef(t *testing.T, spec *sweep.Spec, results []sweep.Result) (text, js []byte) {
	t.Helper()
	m := sweep.BuildMatrix(spec, results)
	var buf bytes.Buffer
	if err := m.RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), data
}

// TestServeAdmissionAndErrors covers the HTTP error taxonomy: tenant
// admission (429), validation (400), unknown jobs (404), and per-tenant
// isolation via the X-Tenant header.
func TestServeAdmissionAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxJobs: 1,
		Tenant:  TenantPolicy{MaxActive: 1},
	})

	// Distinct specs (different seeds) so dedup doesn't mask admission.
	jobN := func(seed int64) *JobSpec {
		js := smallJob()
		js.Seed = seed
		return js
	}
	submit := func(tenant string, js *JobSpec, out any) int {
		t.Helper()
		data, err := json.Marshal(js)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			json.NewDecoder(resp.Body).Decode(out)
		}
		return resp.StatusCode
	}

	var first JobView
	if code := submit("alice", jobN(11), &first); code != http.StatusAccepted {
		t.Fatalf("first submission: status %d", code)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if code := submit("alice", jobN(12), &errBody); code != http.StatusTooManyRequests {
		t.Fatalf("over-MaxActive submission: status %d, want 429", code)
	}
	if !strings.Contains(errBody.Error, "alice") {
		t.Errorf("admission error does not name the tenant: %q", errBody.Error)
	}
	// Another tenant is unaffected.
	if code := submit("bob", jobN(13), nil); code != http.StatusAccepted {
		t.Fatalf("bob's submission blocked by alice's bucket: status %d", code)
	}
	// Resubmitting alice's in-flight spec deduplicates onto the live job
	// instead of charging admission.
	var dup JobView
	if code := submit("alice", jobN(11), &dup); code != http.StatusAccepted || dup.ID != first.ID {
		t.Fatalf("in-flight dedup failed: status %d, id %s (want %s)", code, dup.ID, first.ID)
	}

	if code := submit("", &JobSpec{Years: []string{"1999"}}, &errBody); code != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d, want 400", code)
	}
	if code := do(t, "GET", ts.URL+"/v1/jobs/j999999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/jobs/j999999/cancel", nil, nil); code != http.StatusNotFound {
		t.Fatalf("cancel of unknown job: status %d, want 404", code)
	}

	// List shows every submission in order.
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if code := do(t, "GET", ts.URL+"/v1/jobs", nil, &list); code != http.StatusOK || len(list.Jobs) != 2 {
		t.Fatalf("list: status %d, %d jobs (want 2)", code, len(list.Jobs))
	}
}

// TestServeDrain pins graceful shutdown: Drain cancels running jobs at a
// shard boundary, refuses new submissions and resumes with 503, and
// /healthz reports the draining flag.
func TestServeDrain(t *testing.T) {
	mgr, ts := newTestServer(t, Config{MaxJobs: 1})
	var v JobView
	if code := do(t, "POST", ts.URL+"/v1/jobs", smallJob(), &v); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	mgr.Drain() // blocks until the job lands (cancelled or already done)

	got, err := mgr.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobCancelled && got.State != JobDone {
		t.Errorf("after drain job is %s, want cancelled or done", got.State)
	}
	if code := do(t, "POST", ts.URL+"/v1/jobs", &JobSpec{Years: []string{"2013"}, Shift: 16}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: status %d, want 503", code)
	}
	if got.State == JobCancelled {
		if code := do(t, "POST", ts.URL+"/v1/jobs/"+v.ID+"/resume", nil, nil); code != http.StatusServiceUnavailable {
			t.Errorf("resume while draining: status %d, want 503", code)
		}
	}
	var health struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if code := do(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK || !health.Draining {
		t.Errorf("healthz while draining: status %d, draining=%v", code, health.Draining)
	}
}

// TestServeProgressAndMetrics watches a running job from the outside: the
// progress endpoint renders partial matrices (cells completed so far, in
// grid order) and the per-job metrics endpoint serves a consistent mid-run
// snapshot from the job's private registry.
func TestServeProgressAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 1})
	var v JobView
	if code := do(t, "POST", ts.URL+"/v1/jobs", smallJob(), &v); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Progress must be well-formed at every moment of the job's life,
	// empty grid included.
	sawPartial := false
	for i := 0; i < 10000; i++ {
		var cur JobView
		do(t, "GET", ts.URL+"/v1/jobs/"+v.ID, nil, &cur)
		code, body := fetch(t, ts.URL+"/v1/jobs/"+v.ID+"/progress")
		if code != http.StatusOK {
			t.Fatalf("progress: status %d", code)
		}
		var matrix struct {
			Cells []json.RawMessage `json:"cells"`
		}
		if err := json.Unmarshal(body, &matrix); err != nil {
			t.Fatalf("progress is not matrix JSON: %v\n%s", err, body)
		}
		if n := len(matrix.Cells); n > 0 && n < 4 {
			sawPartial = true
		}
		if cur.State == JobDone {
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	_ = sawPartial // timing-dependent; the assertions above are the contract

	done := waitState(t, ts.URL, v.ID, JobDone)
	if done.CellsDone != 4 {
		t.Fatalf("cells_done = %d, want 4", done.CellsDone)
	}
	// The job's private registry carries the campaign counters.
	code, body := fetch(t, ts.URL+"/v1/jobs/"+v.ID+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("job metrics: status %d", code)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("job metrics is not a snapshot: %v", err)
	}
	if snap.Counters["probe.sent"] == 0 {
		t.Errorf("job registry reports no probes sent: %v", snap.Counters)
	}
	// The daemon registry carries the serve.* counters.
	code, body = fetch(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("daemon metrics: status %d", code)
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.completed"] != 1 || snap.Counters["serve.cells_done"] != 4 {
		t.Errorf("daemon counters off: completed=%d cells_done=%d, want 1 and 4",
			snap.Counters["serve.completed"], snap.Counters["serve.cells_done"])
	}
}

// TestSpecDirReuse pins the durability property: a second manager over the
// same state directory serves a previously-completed spec by loading its
// cell artifacts rather than re-simulating (every cell reports Resumed via
// the sweep log), and the resulting bytes match the first run's.
func TestSpecDirReuse(t *testing.T) {
	stateDir := t.TempDir()
	_, ts1 := newTestServer(t, Config{MaxJobs: 1, StateDir: stateDir})
	var v1 JobView
	if code := do(t, "POST", ts1.URL+"/v1/jobs", smallJob(), &v1); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts1.URL, v1.ID, JobDone)
	_, firstJSON := fetch(t, ts1.URL+"/v1/jobs/"+v1.ID+"/result")

	// A new daemon process: empty cache, same state directory.
	var log bytes.Buffer
	_, ts2 := newTestServer(t, Config{MaxJobs: 1, StateDir: stateDir, Log: &log})
	var v2 JobView
	if code := do(t, "POST", ts2.URL+"/v1/jobs", smallJob(), &v2); code != http.StatusAccepted {
		t.Fatalf("resubmit on restart: status %d (cache must be cold, so 202)", code)
	}
	waitState(t, ts2.URL, v2.ID, JobDone)
	_, secondJSON := fetch(t, ts2.URL+"/v1/jobs/"+v2.ID+"/result")
	if !bytes.Equal(firstJSON, secondJSON) {
		t.Error("restarted daemon produced different bytes for the same spec")
	}
	if n := strings.Count(log.String(), "resumed from artifact"); n != 4 {
		t.Errorf("restarted daemon loaded %d cells from artifacts, want 4\n%s", n, log.String())
	}
}

// TestSpecKeyPrefixIsDirSafe guards the state-directory naming assumption.
func TestSpecKeyPrefixIsDirSafe(t *testing.T) {
	spec, cells, err := smallJob().Compile()
	if err != nil {
		t.Fatal(err)
	}
	key := SpecKey(spec, cells)
	if len(key) != 64 {
		t.Fatalf("spec key %q is not a sha256 hex string", key)
	}
	for _, r := range key {
		if !strings.ContainsRune("0123456789abcdef", r) {
			t.Fatalf("spec key %q contains non-hex rune %q", key, r)
		}
	}
	_ = fmt.Sprintf("spec-%s", key[:16])
}

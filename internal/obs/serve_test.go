package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeEndpoints is the metrics-endpoint smoke test: the server bound
// on an ephemeral port must answer /metrics with the JSON snapshot,
// /debug/vars with expvar (including the published registry), and
// /debug/pprof/ with the profile index.
func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	sh := r.NewShard("sim")
	sh.Add(CProbeSent, 123)
	sh.Observe(HRTT, int64(35*time.Millisecond))
	sp := r.Tracer().Begin("simulate")
	r.Tracer().End(sp)

	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not valid snapshot JSON: %v", err)
	}
	if snap.Counters[CounterName(CProbeSent)] != 123 {
		t.Errorf("/metrics probe.sent = %d, want 123", snap.Counters[CounterName(CProbeSent)])
	}
	if snap.Histograms[HistName(HRTT)].Count != 1 {
		t.Errorf("/metrics rtt histogram missing: %+v", snap.Histograms)
	}
	if len(snap.Phases) != 1 || snap.Phases[0].Name != "simulate" {
		t.Errorf("/metrics phases = %+v", snap.Phases)
	}

	vars := string(get("/debug/vars"))
	if !strings.Contains(vars, `"openresolver"`) {
		t.Error("/debug/vars does not include the published registry")
	}
	if !strings.Contains(vars, `"memstats"`) {
		t.Error("/debug/vars does not include runtime memstats")
	}

	if body := get("/debug/pprof/"); !bytes.Contains(body, []byte("goroutine")) {
		t.Error("/debug/pprof/ index does not list profiles")
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
}

// TestServeBadAddr checks the listen error path.
func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bogus", NewRegistry()); err == nil {
		t.Error("invalid address accepted")
	}
}

// TestStartProgress drives the periodic printer: lines appear while
// running, none after stop, and the content reflects the counters.
func TestStartProgress(t *testing.T) {
	r := NewRegistry()
	sh := r.NewShard("sim")
	sh.Add(CProbeSent, 7)
	sp := r.Tracer().Begin("simulate")
	defer r.Tracer().End(sp)

	var mu syncBuffer
	stop := r.StartProgress(&mu, 2*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for mu.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	out := mu.String()
	if out == "" {
		t.Fatal("no progress line printed")
	}
	if !strings.Contains(out, "probes=7") || !strings.Contains(out, "phase=simulate") {
		t.Errorf("progress line missing counters/phase: %q", out)
	}
	n := mu.Len()
	time.Sleep(10 * time.Millisecond)
	if mu.Len() != n {
		t.Error("progress printer kept writing after stop")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the progress goroutine
// writes while the test polls.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStartCLI covers the CLI bootstrap: no registry unless asked for, a
// ticker-only registry without a listener, and a served registry whose
// banner names the command and whose stop closes the listener after the
// ticker's final line.
func TestStartCLI(t *testing.T) {
	reg, bound, stop, err := StartCLI("orx", "", 0, io.Discard)
	if err != nil || reg != nil || bound != "" {
		t.Fatalf("StartCLI off = %v, %q, %v; want nil registry", reg, bound, err)
	}
	stop()

	var buf bytes.Buffer
	reg, bound, stop, err = StartCLI("orx", "", time.Hour, &buf)
	if err != nil || reg == nil || bound != "" {
		t.Fatalf("StartCLI progress-only = %v, %q, %v", reg, bound, err)
	}
	stop()
	if !strings.HasPrefix(buf.String(), "obs[") {
		t.Errorf("stop did not print the final progress line: %q", buf.String())
	}

	buf.Reset()
	reg, bound, stop, err = StartCLI("orx", "127.0.0.1:0", 0, &buf)
	if err != nil || reg == nil || bound == "" {
		t.Fatalf("StartCLI served = %v, %q, %v", reg, bound, err)
	}
	if want := "orx: metrics on http://" + bound + "/metrics"; !strings.Contains(buf.String(), want) {
		t.Errorf("banner %q lacks %q", buf.String(), want)
	}
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	stop()
	if _, err := http.Get("http://" + bound + "/metrics"); err == nil {
		t.Error("metrics still served after stop")
	}

	if _, _, _, err := StartCLI("orx", "256.0.0.1:bogus", 0, io.Discard); err == nil {
		t.Error("bad metrics address accepted")
	}
}

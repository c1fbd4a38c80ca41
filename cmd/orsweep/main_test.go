package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"openresolver/internal/serve"
	"openresolver/internal/sweep"
)

// sweepArgs is a fast 2×2 grid (shift 16): pristine vs lossy network,
// single-shot vs retrying prober, pool of two.
func sweepArgs(extra ...string) []string {
	return append([]string{
		"-shift", "16", "-seed", "1", "-workers", "2",
		"-loss", "none", "-loss", "loss:0.3",
		"-retry", "0", "-retry", "2+adaptive",
	}, extra...)
}

func TestSweepCLIMatrix(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(sweepArgs(), &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errb.String())
	}
	text := out.String()
	if !strings.Contains(text, "sweep matrix: mode=sim shift=16 seed=1 cells=4") {
		t.Errorf("matrix header missing:\n%s", text)
	}
	for _, want := range []string{"loss:0.3", "2+adaptive", "idx", "digest", "Δbase"} {
		if !strings.Contains(text, want) {
			t.Errorf("matrix missing %q:\n%s", want, text)
		}
	}
	// The baseline star lands on the pristine single-shot cell (row 0).
	if !strings.Contains(text, "*") {
		t.Errorf("no baseline marker in matrix:\n%s", text)
	}
	// Wall-clock stays on stderr, never in the matrix.
	if strings.Contains(text, "finished in") {
		t.Errorf("wall-clock leaked into stdout:\n%s", text)
	}
	if !strings.Contains(errb.String(), "sweep finished in") {
		t.Errorf("stderr missing the wall-clock note:\n%s", errb.String())
	}
}

// TestSweepCLIJSONAndDeterminism runs the same grid twice — pool of one,
// then pool of four with -diff — and requires identical matrix bytes.
func TestSweepCLIJSONAndDeterminism(t *testing.T) {
	dir := t.TempDir()
	j1, j4 := filepath.Join(dir, "m1.json"), filepath.Join(dir, "m4.json")

	var out1, out4, errb bytes.Buffer
	if err := run(append(sweepArgs("-json", j1), "-workers", "1"), &out1, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(append(sweepArgs("-json", j4, "-diff"), "-workers", "4"), &out4, &errb); err != nil {
		t.Fatal(err)
	}
	d1, err := os.ReadFile(j1)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := os.ReadFile(j4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d4) {
		t.Error("matrix JSON differs across pool sizes")
	}
	var m struct {
		Cells []struct {
			Baseline   bool   `json:"baseline"`
			Digest     string `json:"digest"`
			DeltaCount int    `json:"delta_count"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(d1, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 4 || !m.Cells[0].Baseline || len(m.Cells[0].Digest) != 64 {
		t.Errorf("unexpected matrix JSON shape: %+v", m.Cells)
	}
	// -diff appends the per-cell tables after the (identical) matrix.
	if !strings.HasPrefix(out4.String(), out1.String()) {
		t.Error("-diff output does not extend the plain matrix")
	}
	if !strings.Contains(out4.String(), "vs baseline:") {
		t.Errorf("-diff output missing delta tables:\n%s", out4.String())
	}
}

// TestSweepCLISpecFileAndResume drives the spec-file path end to end, then
// resumes with one artifact deleted and requires byte-identical stdout.
func TestSweepCLISpecFileAndResume(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.sweep")
	artDir := filepath.Join(dir, "runs")
	specText := `# CLI test grid
mode sim
shift 16
seed 1
loss none loss:0.3
retry 0 2+adaptive
workers 1
`
	if err := os.WriteFile(specPath, []byte(specText), 0o644); err != nil {
		t.Fatal(err)
	}

	var cold, errb bytes.Buffer
	if err := run([]string{"-spec", specPath, "-out", artDir, "-workers", "2"}, &cold, &errb); err != nil {
		t.Fatalf("cold run: %v\nstderr:\n%s", err, errb.String())
	}
	ents, err := os.ReadDir(artDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("cold run left %d artifacts, want 4", len(ents))
	}
	if err := os.Remove(filepath.Join(artDir, ents[0].Name())); err != nil {
		t.Fatal(err)
	}

	var resumed, errResume bytes.Buffer
	if err := run([]string{"-spec", specPath, "-out", artDir, "-workers", "2", "-resume"},
		&resumed, &errResume); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !bytes.Equal(cold.Bytes(), resumed.Bytes()) {
		t.Errorf("resumed stdout differs from cold run:\n--- cold\n%s--- resumed\n%s", cold.String(), resumed.String())
	}
	if n := strings.Count(errResume.String(), "resumed from artifact"); n != 3 {
		t.Errorf("resume log reports %d resumed cells, want 3:\n%s", n, errResume.String())
	}

	// A scalar flag overrides the spec file: -shift 17 halves every cell.
	var shifted bytes.Buffer
	if err := run([]string{"-spec", specPath, "-shift", "17", "-workers", "2"}, &shifted, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(shifted.String(), "shift=17") {
		t.Errorf("-shift did not override the spec file:\n%s", shifted.String())
	}
}

func TestSweepCLIErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"resume without out", []string{"-resume"}, "-resume needs -out"},
		{"bad year", []string{"-year", "1999"}, "1999"},
		{"bad loss", []string{"-loss", "bogus:1"}, "bogus"},
		{"bad retry", []string{"-retry", "1+turbo"}, "turbo"},
		{"bad cell-workers", []string{"-cell-workers", "x"}, "non-negative"},
		{"duplicate cells", []string{"-loss", "none", "-loss", "none"}, "duplicate cell"},
		{"positional junk", []string{"extra"}, "unexpected argument"},
		{"missing spec file", []string{"-spec", "/nonexistent/grid.sweep"}, "no such file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			err := run(tc.args, &out, &errb)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) err = %v, want containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestSweepCLIMetrics exercises -metrics-addr: the per-cell shards are
// visible in the JSON snapshot and the OpenMetrics exposition serves under
// a Prometheus Accept header.
func TestSweepCLIMetrics(t *testing.T) {
	scraped := make(chan error, 1)
	old := metricsUp
	metricsUp = func(addr string) {
		scraped <- func() error {
			resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			var snap struct {
				Shards []struct {
					Label string `json:"label"`
				} `json:"shards"`
			}
			if err := json.Unmarshal(body, &snap); err != nil {
				return fmt.Errorf("snapshot JSON: %w", err)
			}
			var cellShards int
			for _, sh := range snap.Shards {
				if strings.HasPrefix(sh.Label, "cell-") {
					cellShards++
				}
			}
			if cellShards != 4 {
				return fmt.Errorf("snapshot has %d cell shards, want 4", cellShards)
			}

			req, err := http.NewRequest("GET", fmt.Sprintf("http://%s/metrics", addr), nil)
			if err != nil {
				return err
			}
			req.Header.Set("Accept", "application/openmetrics-text")
			resp2, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			expo, err := io.ReadAll(resp2.Body)
			resp2.Body.Close()
			if err != nil {
				return err
			}
			if !strings.Contains(string(expo), "openresolver_probe_sent_total") {
				return fmt.Errorf("exposition missing probe counter:\n%s", expo)
			}
			return nil
		}()
	}
	defer func() { metricsUp = old }()

	var out, errb bytes.Buffer
	if err := run(sweepArgs("-metrics-addr", "127.0.0.1:0"), &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errb.String())
	}
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
}

// TestFrontEndsCompileOneSpec spells one grid that uses every directive of
// the grammar four ways — a spec file, orsweep flags, a spec file whose
// axes and scalars are overridden by flags, and serve.JobSpec fields — and
// requires the same normalized sweep.Spec and the same serve.SpecKey from
// each. The key is pinned: orserved names its state directories by it.
func TestFrontEndsCompileOneSpec(t *testing.T) {
	const wantKey = "b8f163ae759f9ba4469bfb85b96696ecbcb31e8628c6ee24f5bd9e80d215cb51"
	const text = `mode sim
shift 15
seed 7
pps 20000
max-events 3000000
years 2018 2015.5
loss none ge:0.05,0.2,0.125,1
retry 0 2+adaptive+backoff
workers 1 2
`
	dir := t.TempDir()
	full := filepath.Join(dir, "full.sweep")
	partial := filepath.Join(dir, "partial.sweep")
	if err := os.WriteFile(full, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(partial, []byte("mode synth\nshift 12\nseed 7\nyears 2013\nloss none ge:0.05,0.2,0.125,1\nworkers 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	errCompiled := errors.New("compiled")
	var got *sweep.Spec
	old := runSweep
	runSweep = func(rc sweep.RunConfig) ([]sweep.Result, error) {
		got = rc.Spec
		return nil, errCompiled
	}
	defer func() { runSweep = old }()
	viaRun := func(args ...string) *sweep.Spec {
		t.Helper()
		got = nil
		if err := run(args, io.Discard, io.Discard); !errors.Is(err, errCompiled) {
			t.Fatalf("run(%v) = %v, want the compiled spec", args, err)
		}
		return got
	}

	js := &serve.JobSpec{
		Years:       []string{"2018", "2015.5"},
		Loss:        []string{"none", "ge:0.05,0.2,0.125,1"},
		Retry:       []string{"0", "2+adaptive+backoff"},
		CellWorkers: []int{1, 2},
		Mode:        "sim",
		Shift:       15,
		Seed:        7,
		PPS:         20000,
		MaxEvents:   3000000,
	}
	fromJob, _, err := js.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fromText, _, err := (&serve.JobSpec{SpecText: text}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec *sweep.Spec
	}{
		{"spec text", fromText},
		{"orsweep -spec", viaRun("-spec", full)},
		{"orsweep flags", viaRun("-mode", "sim", "-shift", "15", "-seed", "7", "-pps", "20000",
			"-max-events", "3000000", "-year", "2018", "-year", "2015.5",
			"-loss", "none", "-loss", "ge:0.05,0.2,0.125,1", "-retry", "0", "-retry", "2+adaptive+backoff",
			"-cell-workers", "1", "-cell-workers", "2")},
		{"orsweep -spec with overrides", viaRun("-spec", partial, "-mode", "sim", "-shift", "15",
			"-year", "2018", "-year", "2015.5", "-retry", "0", "-retry", "2+adaptive+backoff",
			"-pps", "20000", "-max-events", "3000000", "-cell-workers", "1", "-cell-workers", "2")},
		{"JobSpec fields", fromJob},
	} {
		if !reflect.DeepEqual(tc.spec, fromJob) {
			t.Errorf("%s compiled to\n %+v\nwant\n %+v", tc.name, tc.spec, fromJob)
		}
		cells, err := tc.spec.Cells()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if key := serve.SpecKey(tc.spec, cells); key != wantKey {
			t.Errorf("%s: spec key %s, want %s", tc.name, key, wantKey)
		}
	}

	// An explicitly passed -shift 0 still overrides the file's shift 12,
	// leaving the default.
	if s := viaRun("-spec", partial, "-mode", "sim", "-shift", "0"); s.Shift != 14 || s.Seed != 7 {
		t.Errorf("-spec with -shift 0: shift %d seed %d, want 14 and the file's 7", s.Shift, s.Seed)
	}
}

// Command perfbench is the repository's benchmark: it runs one named
// workload against the campaign engine for a fixed time, checks every
// operation's output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": 57, "failed": 0, "metrics": {...}}
//
// Workloads: synth-paper (full-scale synthetic 2013+2018 campaigns, checked
// against the paper's tables), sim-campaign (simulated 2013+2018 campaigns
// at 1/4096 scale, checked by digest repeatability) and service-fleet (an
// in-process orserved daemon backed by a fabric coordinator and workers,
// driven by an open-loop job generator). LAYERS.md describes each metric
// and the layer it attributes.
//
// Run it through run.py, which builds it from the checkout:
//
//	python3 perfbench/run.py --workload sim-campaign --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// scale sets the size of every workload. defaultScale is the benchmark;
// the tests shrink it.
type scale struct {
	SynthShift uint8   // synth-paper SampleShift (0 = full scale, paper-exact)
	SimShift   uint8   // sim-campaign SampleShift
	SimSeeds   int     // distinct seeds sim-campaign cycles through
	FleetShift uint8   // service-fleet grid SampleShift
	FleetRate  float64 // service-fleet submissions per second
	Workers    int     // campaign workers, fabric workers and HTTP connections
	MaxSetups  int     // set-up repetitions behind setup_s ...
	SetupSpend float64 // ... while their total stays under this many seconds
}

var defaultScale = scale{
	SynthShift: 0,
	SimShift:   12,
	SimSeeds:   8,
	FleetShift: 14,
	FleetRate:  1,
	Workers:    runtime.NumCPU(),
	MaxSetups:  5,
	SetupSpend: 4,
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	scale    scale
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: synth-paper, sim-campaign or service-fleet")
	seed := fs.Int64("seed", 1, "workload seed; every campaign seed is derived from it")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the trace file and the daemon's state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{
		workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace == 1, out: *out, scale: defaultScale,
	}
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one workload. setup boots it and runs one untimed, checked
// warm-up op; teardown releases what setup built, so setup can be timed
// repeatedly. window applies the workload's load for d and returns the
// ops it timed; with a tracer it records spans and collects what layers
// reads afterwards. layers fills the workload's per-layer metrics from the
// traced window plus replays of layer calls outside any op.
type bench interface {
	setup() error
	teardown()
	window(d time.Duration, tr *tracer) windowStats
	layers(m map[string]float64) error
}

// windowStats is what one timed window measured.
type windowStats struct {
	Latencies []float64      // op latencies, seconds
	Probes    uint64         // Table II Q1 probes of executed ops
	Executed  int            // ops that ran a campaign (not served from cache)
	Ops       [][2]time.Time // start and end of every executed op
	Wall      time.Duration
	Notes     []string // workload-specific human-readable lines
}

// tally counts checked ops — warm-ups, timed ops and traced ops — and
// keeps the first failure reasons.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

func (t *tally) record(what string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

func newBench(o options, t *tally) (bench, error) {
	switch o.workload {
	case "synth-paper":
		return newSynthBench(o, t), nil
	case "sim-campaign":
		return newSimBench(o, t), nil
	case "service-fleet":
		return newFleetBench(o, t), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want synth-paper, sim-campaign or service-fleet)", o.workload)
}

// execute runs one workload and assembles its result, printing every
// metric by name with its unit, plus sample counts, on the way.
func execute(o options, stdout io.Writer) (*result, error) {
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	t := &tally{}
	b, err := newBench(o, t)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "perfbench: workload %s seed %d seconds %g trace %v workers %d\n",
		o.workload, o.seed, o.seconds, o.trace, o.scale.Workers)

	// Set-up, repeated: each repetition boots the workload and runs one
	// warm-up op; all but the last are torn down again.
	var setups []float64
	spent := 0.0
	for {
		start := time.Now()
		if err := b.setup(); err != nil {
			b.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start).Seconds()
		setups = append(setups, d)
		spent += d
		if len(setups) >= o.scale.MaxSetups || spent+d > o.scale.SetupSpend {
			break
		}
		b.teardown()
	}
	defer b.teardown()

	dur := time.Duration(o.seconds * float64(time.Second))
	metrics := map[string]float64{}
	var lines []string
	add := func(name string, v float64, unit, note string) {
		metrics[name] = v
		l := fmt.Sprintf("%-28s %16.6g %-6s", name, v, unit)
		if note != "" {
			l += "  " + note
		}
		lines = append(lines, l)
	}
	e2e := func(ws windowStats, w window) {
		add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
		add("probes_per_s", float64(ws.Probes)/ws.Wall.Seconds(), "1/s",
			fmt.Sprintf("%d probes over %.3f s", ws.Probes, ws.Wall.Seconds()))
		add("op_p50_s", median(ws.Latencies), "s", fmt.Sprintf("n=%d", len(ws.Latencies)))
		if tl, ok := tailOf(ws.Latencies); ok {
			add("op_tail_s", tl.Value, "s", fmt.Sprintf("p%d, n=%d, %d beyond", tl.Percentile, tl.Samples, tl.Beyond))
		} else {
			lines = append(lines, fmt.Sprintf("%-28s %16s %-6s  n=%d: fewer than %d samples beyond the median",
				"op_tail_s", "absent", "s", tl.Samples, minBeyond))
		}
		per := float64(max(ws.Executed, 1))
		add("cpu_s_per_op", w.CPU.Seconds()/per, "s", fmt.Sprintf("n=%d executed ops", ws.Executed))
		add("alloc_mb_per_op", float64(w.AllocBytes)/1e6/per, "MB", fmt.Sprintf("n=%d executed ops", ws.Executed))
		add("peak_heap_mb", opPeak(w, ws.Ops)/1e6, "MB",
			fmt.Sprintf("mean per-op peak, %d GC cycles (window max %.4g MB)", len(w.Lives), float64(w.MaxLive)/1e6))
	}

	runtime.GC()
	if !o.trace {
		m := startMeter()
		ws := b.window(dur, nil)
		w := m.stop()
		e2e(ws, w)
		lines = append(lines, ws.Notes...)
	} else {
		// First half untraced (the reference for the tracing overhead),
		// second half traced under a CPU profile.
		m := startMeter()
		ws0 := b.window(dur/2, nil)
		w0 := m.stop()
		e2e(ws0, w0)
		lines = append(lines, ws0.Notes...)
		runtime.GC()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		tr := newTracer()
		m = startMeter()
		ws1 := b.window(dur/2, tr)
		w1 := m.stop()
		pprof.StopCPUProfile()
		if len(ws1.Notes) > 0 {
			lines = append(lines, "traced window:")
			lines = append(lines, ws1.Notes...)
		}
		spans := tr.snapshot()

		layer := map[string]float64{}
		for _, d := range perLayer {
			layer[d.Name] = 0
		}
		if err := b.layers(layer); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		layer["runtime.gc_cpu_share"] = w1.GCCPUShare
		layer["runtime.gc_cycles_per_op"] = float64(w1.GCCycles) / float64(max(ws1.Executed, 1))
		flat, err := flatByFunction(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for l, share := range cpuShares(flat) {
			layer["cpu."+l] = share
		}
		sum := summarize(spans)
		if p0 := median(ws0.Latencies); p0 > 0 {
			layer["trace.overhead_ratio"] = median(ws1.Latencies) / p0
		}
		layer["trace.coverage"] = sum.Coverage
		layer["trace.uncovered_ms_per_op"] = median(sum.UncoveredMS)
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := writeTrace(path, spans, sum); err != nil {
			return nil, err
		}
		lines = append(lines, fmt.Sprintf("trace: %d spans over %d traced ops (%d untraced) written to %s",
			len(spans), sum.Ops, len(ws0.Latencies), path))
		for _, lt := range sum.Layers {
			lines = append(lines, fmt.Sprintf("  span %-24s n=%-5d total %10.3f ms  self %10.3f ms",
				lt.Name, lt.Count, lt.TotalMS, lt.SelfMS))
		}
		lines = append(lines, "per-layer metrics:")
		metrics = map[string]float64{}
		for _, d := range perLayer {
			add(d.Name, layer[d.Name], d.Unit, "")
		}
	}

	t.mu.Lock()
	attempted, failed, reasons := t.attempted, t.failed, t.reasons
	t.mu.Unlock()
	lines = append(lines, fmt.Sprintf("%-28s %16.6g %-6s  %d failed of %d attempted",
		"fail_ratio", float64(failed)/float64(max(attempted, 1)), "ratio", failed, attempted))
	for _, r := range reasons {
		lines = append(lines, "FAIL "+r)
	}
	fmt.Fprintln(stdout, strings.Join(lines, "\n"))

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// closedWindow is the closed loop with one caller: ops back to back until
// d has elapsed, and at least one.
func closedWindow(d time.Duration, op func() (probes uint64, err error), t *tally, what string) windowStats {
	var ws windowStats
	start := time.Now()
	for len(ws.Latencies) == 0 || time.Since(start) < d {
		t0 := time.Now()
		probes, err := op()
		t1 := time.Now()
		ws.Latencies = append(ws.Latencies, t1.Sub(t0).Seconds())
		ws.Ops = append(ws.Ops, [2]time.Time{t0, t1})
		t.record(what, err)
		if err == nil {
			ws.Probes += probes
		}
		ws.Executed++
	}
	ws.Wall = time.Since(start)
	return ws
}

// deriveSeed maps (workload seed, k) to a campaign seed in [2, 2^31):
// SplitMix64 over the pair, so every op's inputs follow from -seed alone.
// Seed 1 is left out; it belongs to the pinned smoke baseline.
func deriveSeed(seed int64, k uint64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + (k+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z%(1<<31-2)) + 2
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

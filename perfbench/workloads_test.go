package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// tinyScale shrinks every workload so a full set-up, window and traced
// pass takes seconds. service-fleet keeps the smoke grid's scale: its
// warm-up job is checked against the digest pinned at that scale.
var tinyScale = scale{
	SynthShift: 12,
	SimShift:   15,
	SimSeeds:   2,
	FleetShift: 14,
	FleetRate:  6,
	Workers:    2,
	MaxSetups:  2,
	SetupSpend: 2,
}

// TestWorkloadsEmitEveryMetric runs each workload at tiny scale, untraced
// and traced, and requires a correct result carrying exactly the declared
// metrics, each with its declared unit, printed by name above the result.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range []string{"synth-paper", "sim-campaign", "service-fleet"} {
		for _, traced := range []bool{false, true} {
			o := options{workload: wl, seed: 5, seconds: 1, trace: traced, out: t.TempDir(), scale: tinyScale}
			var out bytes.Buffer
			res, err := execute(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					wl, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.Name]
				if !ok || mv.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, traced, d.Name, mv, d.Unit)
				}
				if !strings.Contains(out.String(), d.Name) {
					t.Errorf("%s trace=%v: %s not printed", wl, traced, d.Name)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", wl, d.Name, res.Metrics[d.Name].Value)
					}
				}
			} else if c := res.Metrics["trace.coverage"].Value; c < 0.9 || c > 1 {
				t.Errorf("%s: trace coverage %v", wl, c)
			}
			line, _ := json.Marshal(res)
			var keys map[string]any
			json.Unmarshal(line, &keys)
			if got := sortedKeys(keys); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("result keys %v", got)
			}
		}
	}
}

// TestBenchmarkManifestMatches keeps BENCHMARK.json and the program in
// step: the same workloads and the same metrics with the same units.
func TestBenchmarkManifestMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory:", err)
	}
	var manifest struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
		if _, err := newBench(options{workload: w.Name, scale: tinyScale}, &tally{}); err != nil {
			t.Errorf("manifest workload %s: %v", w.Name, err)
		}
	}
	if len(names) != 3 {
		t.Errorf("manifest workloads %v", names)
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program reports %v", manifest.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's list")
	}
}

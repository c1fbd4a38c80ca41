package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"openresolver/internal/obs"
)

// TestMetricsEndpoint scrapes the metrics server after a complete trend:
// the snapshot must carry one closed "epoch <label>" span per epoch with
// the campaign phases nested between them.
func TestMetricsEndpoint(t *testing.T) {
	defer func(old func(string)) { metricsUp = old }(metricsUp)

	var snap obs.Snapshot
	metricsUp = func(addr string) {
		resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("decode /metrics: %v", err)
		}
	}

	err := run([]string{"-epochs", "2", "-shift", "13",
		"-metrics-addr", "127.0.0.1:0"}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters[obs.CounterName(obs.CSynthProbes)] == 0 {
		t.Error("snapshot has no synth.probes count after the trend")
	}
	epochs := 0
	for _, ph := range snap.Phases {
		if len(ph.Name) > 6 && ph.Name[:6] == "epoch " {
			epochs++
			if !ph.Done {
				t.Errorf("phase %q not closed", ph.Name)
			}
		}
	}
	if epochs != 2 {
		t.Errorf("want 2 epoch spans, got %d: %+v", epochs, snap.Phases)
	}
}

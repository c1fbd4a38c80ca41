package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSynth(t *testing.T) {
	if err := run([]string{"-year", "2018", "-shift", "10"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSynthWorkers(t *testing.T) {
	if err := run([]string{"-year", "2018", "-shift", "12", "-workers", "3"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimWithCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	path := filepath.Join(t.TempDir(), "r2.orlog")
	if err := run([]string{"-mode", "sim", "-shift", "13", "-capture", path}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Error("capture file empty")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-mode", "nope"}, io.Discard, io.Discard); err == nil {
		t.Error("bad mode accepted")
	}
	if err := run([]string{"-bogus"}, io.Discard, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-year", "1999"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown year accepted")
	}
}

func TestUsageListsWorkers(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &buf); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	usage := buf.String()
	for _, flag := range []string{"-workers", "-year", "-mode", "-shift"} {
		if !strings.Contains(usage, flag) {
			t.Errorf("usage output missing %s:\n%s", flag, usage)
		}
	}
	if !strings.Contains(usage, "all cores") {
		t.Errorf("-workers usage does not explain the 0 default:\n%s", usage)
	}
}

func TestRunWithExports(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	csvDir := filepath.Join(dir, "csv")
	if err := run([]string{"-year", "2018", "-shift", "12", "-json", jsonPath, "-csvdir", csvDir}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(jsonPath); err != nil || st.Size() == 0 {
		t.Errorf("json export: %v", err)
	}
	for _, table := range []string{"correctness", "top10", "geo"} {
		if st, err := os.Stat(filepath.Join(csvDir, table+".csv")); err != nil || st.Size() == 0 {
			t.Errorf("csv %s: %v", table, err)
		}
	}
}

// TestLossModelNone: "-loss-model none" is the pristine network, the same
// keyword orsweep, orfabric and serve.JobSpec accept, so the report is
// byte-identical to the run without the flag.
func TestLossModelNone(t *testing.T) {
	args := []string{"-mode", "sim", "-shift", "16"}
	var plain, none bytes.Buffer
	if err := run(args, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-loss-model", "none"), &none, io.Discard); err != nil {
		t.Fatal(err)
	}
	if plain.Len() == 0 || !bytes.Equal(plain.Bytes(), none.Bytes()) {
		t.Errorf("-loss-model none changed the report:\n--- without ---\n%s\n--- with ---\n%s", plain.String(), none.String())
	}
}

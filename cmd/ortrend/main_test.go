package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	if err := run([]string{"-epochs", "2", "-shift", "13"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkers(t *testing.T) {
	if err := run([]string{"-epochs", "2", "-shift", "13", "-workers", "2"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-epochs", "1"}, io.Discard, io.Discard); err == nil {
		t.Error("single epoch accepted")
	}
}

func TestUsageListsWorkers(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &buf); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	usage := buf.String()
	for _, flag := range []string{"-workers", "-epochs", "-shift"} {
		if !strings.Contains(usage, flag) {
			t.Errorf("usage output missing %s:\n%s", flag, usage)
		}
	}
}

// TestLossModelNone: "-loss-model none" is the pristine network, so the
// trend is byte-identical to the run without the flag.
func TestLossModelNone(t *testing.T) {
	args := []string{"-mode", "sim", "-shift", "16", "-epochs", "2"}
	var plain, none bytes.Buffer
	if err := run(args, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-loss-model", "none"), &none, io.Discard); err != nil {
		t.Fatal(err)
	}
	if plain.Len() == 0 || !bytes.Equal(plain.Bytes(), none.Bytes()) {
		t.Errorf("-loss-model none changed the trend:\n--- without ---\n%s\n--- with ---\n%s", plain.String(), none.String())
	}
}

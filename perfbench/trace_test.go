package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func at(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  [][2]time.Duration
		want time.Duration
	}{
		{"none", nil, 0},
		{"disjoint", [][2]time.Duration{{at(10), at(20)}, {at(30), at(35)}}, at(15)},
		{"overlapping", [][2]time.Duration{{at(10), at(40)}, {at(30), at(60)}}, at(50)},
		{"nested", [][2]time.Duration{{at(10), at(60)}, {at(20), at(30)}}, at(50)},
		{"touching", [][2]time.Duration{{at(10), at(20)}, {at(20), at(30)}}, at(20)},
		{"clipped", [][2]time.Duration{{-at(5), at(10)}, {at(90), at(150)}}, at(20)},
		{"outside", [][2]time.Duration{{at(200), at(300)}}, 0},
	} {
		if got := covered(0, at(100), tc.ivs); got != tc.want {
			t.Errorf("%s: covered = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSelfTimeOverlappingChildren: a span's self time subtracts the union
// of its direct children — overlapping children (parallel shards) count
// once, a child running past its parent counts only inside the parent,
// and grandchildren are charged to their own parent, not the root.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: at(100)},
		{ID: 1, Parent: 0, Name: "core.fanout", Start: at(10), End: at(40)},
		{ID: 2, Parent: 0, Name: "core.fanout", Start: at(30), End: at(60)},
		{ID: 3, Parent: 0, Name: "core.merge", Start: at(90), End: at(120)},
		{ID: 4, Parent: 1, Name: "core.shard", Start: at(10), End: at(25)},
		{ID: 5, Parent: 1, Name: "core.shard", Start: at(15), End: at(35)},
	}
	self := selfTimes(spans)
	want := []time.Duration{
		at(100) - at(50) - at(10), // children cover [10,60) and [90,100)
		at(30) - at(25),           // [10,35) covered by the two shards
		at(30), at(30), at(15), at(20),
	}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}

	sum := summarize(spans)
	if sum.Ops != 1 {
		t.Fatalf("ops = %d, want 1", sum.Ops)
	}
	if got, want := sum.Coverage, 0.6; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if len(sum.UncoveredMS) != 1 || sum.UncoveredMS[0] != 40 {
		t.Errorf("uncovered = %v, want [40]", sum.UncoveredMS)
	}
	byName := map[string]layerTime{}
	for _, l := range sum.Layers {
		byName[l.Name] = l
	}
	if l := byName["core.fanout"]; l.Count != 2 || l.TotalMS != 60 || l.SelfMS != 35 {
		t.Errorf("core.fanout summary %+v", l)
	}
	if l := byName["core.shard"]; l.Count != 2 || l.SelfMS != 35 {
		t.Errorf("core.shard summary %+v", l)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	root := tr.begin(7, -1, "op", "")
	child := tr.begin(7, root, "core.open", "2018")
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 7 {
		t.Fatalf("spans %+v", spans)
	}
	if spans[1].dur() <= 0 || spans[0].End < spans[1].End {
		t.Fatalf("span times not closed in order: %+v", spans)
	}

	var nilTracer *tracer
	if id := nilTracer.begin(0, -1, "op", ""); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	nilTracer.end(3)

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, spans, summarize(spans)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Summary traceSummary `json:"summary"`
		Spans   []span       `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 || doc.Summary.Ops != 1 {
		t.Errorf("written trace: %d spans, %d ops", len(doc.Spans), doc.Summary.Ops)
	}
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval of the traced run. Spans of one op share
// its Op ID; Parent is the index of the span that caused this one (-1 for
// an op's root). Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Label  string        `json:"label,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil tracer records nothing, so untraced code paths
// call the same helpers.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(op, parent int, name, label string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Label: label,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
	return id
}

// begin opens a span; end closes it. Open spans have End == Start.
func (t *tracer) begin(op, parent int, name, label string) int {
	now := time.Now()
	return t.add(op, parent, name, label, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of every recorded span.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered returns the length of the union of ivs clipped to [lo, hi).
// Children of one span may overlap (shards running on parallel workers),
// so their durations cannot simply be summed.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	var clip [][2]time.Duration
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clip = append(clip, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i][0] < clip[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, iv := range clip {
		if !open || iv[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = iv[0], iv[1], true
			continue
		}
		curB = max(curB, iv[1])
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval its direct children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// layerTime is one span name's totals over the traced ops.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// traceSummary digests the spans of the traced ops: per-name totals and
// self times, and for every op root (a span with Parent -1) the share of
// its wall its children cover and the remainder no span accounts for.
type traceSummary struct {
	Layers      []layerTime `json:"layers"`
	Ops         int         `json:"ops"`
	Coverage    float64     `json:"coverage"`
	UncoveredMS []float64   `json:"uncovered_ms_per_op"`
}

func summarize(spans []span) traceSummary {
	self := selfTimes(spans)
	byName := map[string]*layerTime{}
	var sum traceSummary
	var wall, cov time.Duration
	for i, s := range spans {
		if s.Parent < 0 {
			sum.Ops++
			wall += s.dur()
			cov += s.dur() - self[i]
			sum.UncoveredMS = append(sum.UncoveredMS, ms(self[i]))
			continue
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.TotalMS += ms(s.dur())
		lt.SelfMS += ms(self[i])
	}
	for _, lt := range byName {
		sum.Layers = append(sum.Layers, *lt)
	}
	sort.Slice(sum.Layers, func(i, j int) bool { return sum.Layers[i].SelfMS > sum.Layers[j].SelfMS })
	if wall > 0 {
		sum.Coverage = float64(cov) / float64(wall)
	}
	return sum
}

// writeTrace writes the spans and their summary as one JSON document.
func writeTrace(path string, spans []span, sum traceSummary) error {
	data, err := json.MarshalIndent(struct {
		Summary traceSummary `json:"summary"`
		Spans   []span       `json:"spans"`
	}{sum, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

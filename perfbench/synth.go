package main

import (
	"fmt"
	"time"

	"openresolver/internal/analysis"
	"openresolver/internal/core"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
)

// years is the paper's §IV contrast, in the order every op runs it.
var years = []paperdata.Year{paperdata.Y2013, paperdata.Y2018}

// synthBench is synth-paper: a closed loop with one caller whose op is a
// synthetic campaign for 2013 and then 2018 under one seed, checked
// against the paper's tables.
type synthBench struct {
	o     options
	t     *tally
	n     uint64 // ops issued so far, warm-ups included; op n runs seed deriveSeed(seed, n)
	camps map[paperdata.Year]analysis.CampaignCounts

	// Collected over traced ops.
	traced     int
	synthesize time.Duration
	q2, r1     uint64
}

func newSynthBench(o options, t *tally) *synthBench {
	return &synthBench{o: o, t: t, camps: map[paperdata.Year]analysis.CampaignCounts{}}
}

func (b *synthBench) setup() error {
	_, err := b.op(nil)
	b.t.record("synth-paper warm-up", err)
	return nil
}

func (b *synthBench) teardown() {}

func (b *synthBench) window(d time.Duration, tr *tracer) windowStats {
	return closedWindow(d, func() (uint64, error) { return b.op(tr) }, b.t, "synth-paper op")
}

// op runs one campaign pair. Traced, each campaign is a span whose
// children are the engine's own phase spans (core.Config.Obs) plus the
// dependency build before them, followed by the paper comparison.
func (b *synthBench) op(tr *tracer) (uint64, error) {
	id := int(b.n)
	seed := deriveSeed(b.o.seed, b.n)
	b.n++
	root := tr.begin(id, -1, "op", fmt.Sprint(seed))
	defer tr.end(root)
	var probes uint64
	for _, y := range years {
		cfg := core.Config{Year: y, SampleShift: b.o.scale.SynthShift, Seed: seed, Workers: b.o.scale.Workers}
		var reg *obs.Registry
		if tr != nil {
			reg = obs.NewRegistry()
			cfg.Obs = reg
		}
		label := fmt.Sprint(y)
		start := time.Now()
		ds, err := core.RunSynthetic(cfg)
		end := time.Now()
		if err != nil {
			return 0, err
		}
		if tr != nil {
			sp := tr.add(id, root, "core.run_synthetic", label, start, end)
			addPhases(tr, id, sp, label, reg, start)
			for _, ph := range reg.Tracer().Spans() {
				if ph.Name == "synthesize" {
					b.synthesize += ph.End - ph.Start
				}
			}
			b.q2 += ds.Report.Campaign.Q2
			b.r1 += ds.Report.Campaign.R1
		}
		b.camps[y] = ds.Report.Campaign
		sp := tr.begin(id, root, "analysis.compare", label)
		err = checkPaper(ds, b.o.scale.SynthShift)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%d seed %d: %w", y, seed, err)
		}
		probes += ds.Report.Campaign.Q1
	}
	if tr != nil {
		b.traced++
	}
	return probes, nil
}

// checkPaper requires every paper row to match at full scale. A scaled-down
// run cannot match the paper's absolute counts, so there only the
// comparison itself must produce rows.
func checkPaper(ds *core.Dataset, shift uint8) error {
	matched, total := analysis.Matches(ds.Report.CompareToPaper())
	if total == 0 {
		return fmt.Errorf("paper comparison produced no rows")
	}
	if shift == 0 && matched != total {
		return fmt.Errorf("%d/%d paper rows matched", matched, total)
	}
	return nil
}

// phaseNames maps the engine's phase span names onto layer span names.
var phaseNames = map[string]string{
	"scan-universe":    "scan.universe",
	"population-place": "core.place",
	"synthesize":       "core.synthesize",
	"report":           "analysis.report",
}

// addPhases records the engine's phase spans from reg as children of
// parent, plus a "core.deps" span from start to the first phase: the
// population, threat-feed and universe build that precedes them.
func addPhases(tr *tracer, op, parent int, label string, reg *obs.Registry, start time.Time) {
	first := time.Time{}
	for _, ph := range reg.Tracer().Spans() {
		s, e := reg.Start().Add(ph.Start), reg.Start().Add(ph.End)
		name := phaseNames[ph.Name]
		if name == "" {
			name = "core." + ph.Name
		}
		tr.add(op, parent, name, label, s, e)
		if first.IsZero() || s.Before(first) {
			first = s
		}
	}
	if !first.IsZero() {
		tr.add(op, parent, "core.deps", label, start, first)
	}
}

func (b *synthBench) layers(m map[string]float64) error {
	if b.traced > 0 {
		n := float64(b.traced)
		m["core.synthesize_s"] = b.synthesize.Seconds() / n
		m["dnssrv.q2_per_op"] = float64(b.q2) / n
		m["dnssrv.r1_per_op"] = float64(b.r1) / n
	}
	return replayLayers(m, b.o.scale.SynthShift, deriveSeed(b.o.seed, 0), b.camps)
}

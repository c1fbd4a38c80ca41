package core

import (
	"reflect"
	"runtime"
	"testing"

	"openresolver/internal/behavior"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/threatintel"
)

func TestProbeQIDWrapsExplicitly(t *testing.T) {
	// The serial engine historically incremented a bare uint16 starting at
	// zero: probe 0 carries ID 1 and the ID passes through 0 every 65,536
	// probes. ProbeQID must reproduce that sequence from the global index.
	cases := []struct {
		idx  uint64
		want uint16
	}{
		{0, 1}, {1, 2}, {65534, 65535}, {65535, 0}, {65536, 1},
		{2*65536 - 1, 0}, {2 * 65536, 1}, {10*65536 + 41, 42},
	}
	for _, c := range cases {
		if got := ProbeQID(c.idx); got != c.want {
			t.Errorf("ProbeQID(%d) = %d, want %d", c.idx, got, c.want)
		}
	}
	// Against the reference serial increment over a full wrap.
	var qid uint16
	for i := uint64(0); i < 3*65536+17; i++ {
		qid++
		if got := ProbeQID(i); got != qid {
			t.Fatalf("ProbeQID(%d) = %d, serial increment gives %d", i, got, qid)
		}
	}
}

func TestSyntheticWorkersDeterministic(t *testing.T) {
	// The acceptance invariant of the parallel engine: RunSynthetic with
	// Workers N is deep-equal to Workers 1 for the same (config, seed),
	// for both campaign years.
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		base := Config{Year: y, SampleShift: 8, Seed: 5, Workers: 1}
		serial, err := RunSynthetic(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 7, 13, runtime.GOMAXPROCS(0)} {
			cfg := base
			cfg.Workers = workers
			par, err := RunSynthetic(cfg)
			if err != nil {
				t.Fatalf("year %d workers %d: %v", y, workers, err)
			}
			if !reflect.DeepEqual(serial.Report, par.Report) {
				t.Errorf("year %d: report with %d workers differs from serial", y, workers)
			}
			if serial.ClustersUsed != par.ClustersUsed {
				t.Errorf("year %d workers %d: clusters %d vs %d",
					y, workers, par.ClustersUsed, serial.ClustersUsed)
			}
		}
	}
}

func TestSyntheticWorkersDefaultsToAllCores(t *testing.T) {
	// Workers 0 (the default) must behave like GOMAXPROCS workers and still
	// match the serial report.
	cfg := Config{Year: paperdata.Y2018, SampleShift: 9, Seed: 11}
	def, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	serial, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Report, serial.Report) {
		t.Error("default-workers report differs from serial")
	}
}

func TestSyntheticMoreWorkersThanProbes(t *testing.T) {
	// A tiny population with a huge worker count: shards clamp to the
	// probe count and empty shards are never planned.
	feed := threatintel.NewFeed(paperdata.Y2018, 3)
	pop := &population.Population{
		Year:  paperdata.Y2018,
		Shift: 12,
		Cohorts: []population.Cohort{
			{Count: 3, Class: population.ClassCorrect,
				Profile: behavior.Honest(1)},
		},
		ExpectedR2: 3,
	}
	ds, err := SynthesizePopulation(
		Config{Year: paperdata.Y2018, SampleShift: 12, Seed: 3, Workers: 64},
		pop, feed.DB)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Report.Correctness.R2 != 3 {
		t.Errorf("analyzed %d probes, want 3", ds.Report.Correctness.R2)
	}
}

func TestPlanShardsCoversEveryProbeOnce(t *testing.T) {
	pop, _, err := buildDeps(Config{Year: paperdata.Y2018, SampleShift: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, c := range pop.Cohorts {
		total += c.Count
	}
	for _, n := range []int{1, 2, 3, 8, 31} {
		plans := planShards(pop, total, n)
		if len(plans) != n {
			t.Fatalf("n=%d: %d plans", n, len(plans))
		}
		var covered uint64
		var unpinned uint64
		byCountry := map[string]uint64{}
		for i, p := range plans {
			if p.start != covered {
				t.Fatalf("n=%d shard %d: start %d, want %d", n, i, p.start, covered)
			}
			if p.end < p.start {
				t.Fatalf("n=%d shard %d: inverted range", n, i)
			}
			// The prefix sums must equal the assignments made by all
			// preceding shards, tracked here by replaying cohort spans.
			if p.unpinned != unpinned {
				t.Fatalf("n=%d shard %d: unpinned prefix %d, want %d", n, i, p.unpinned, unpinned)
			}
			for k, v := range p.byCountry {
				if byCountry[k] != v {
					t.Fatalf("n=%d shard %d: country %s prefix %d, want %d", n, i, k, v, byCountry[k])
				}
			}
			for k, v := range byCountry {
				if p.byCountry[k] != v {
					t.Fatalf("n=%d shard %d: country %s prefix missing (want %d)", n, i, k, v)
				}
			}
			// Replay this shard's assignments.
			g := p.start
			ci, off := p.cohort, p.offset
			for g < p.end {
				c := &pop.Cohorts[ci]
				take := c.Count - off
				if take > p.end-g {
					take = p.end - g
				}
				if c.Country == "" {
					unpinned += take
				} else {
					byCountry[c.Country] += take
				}
				g += take
				off += take
				if off == c.Count {
					ci, off = ci+1, 0
				}
			}
			covered = p.end
		}
		if covered != total {
			t.Fatalf("n=%d: covered %d of %d probes", n, covered, total)
		}
	}
}

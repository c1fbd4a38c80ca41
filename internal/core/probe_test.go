package core

import (
	"testing"

	"openresolver/internal/analysis"
	"openresolver/internal/behavior"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/scan"
	"openresolver/internal/threatintel"
)

// TestProbeNameCanonical pins the invariant the synthetic probe path
// relies on to skip CanonicalName: every generated probe name is already
// canonical, across the cluster and index ranges of a full campaign.
func TestProbeNameCanonical(t *testing.T) {
	var buf []byte
	for _, c := range []struct{ cluster, index int }{
		{0, 0}, {0, 1}, {1, 0}, {3, 4999999}, {740, 9999999}, {799, 1234567},
	} {
		buf = dnssrv.AppendProbeName(buf[:0], c.cluster, c.index, paperdata.SLD)
		if got := dnswire.CanonicalName(string(buf)); got != string(buf) {
			t.Errorf("probe name %q is not canonical (CanonicalName = %q)", buf, got)
		}
	}
}

type namedProfile struct {
	name string
	p    behavior.Profile
}

// probeProfiles is one cohort profile per answer kind the synthetic
// engine encodes, with the header shapes the campaigns actually see. The
// fixed answer is a reported malware address, so the accumulator's
// malicious-answer branch runs too.
func probeProfiles(t testing.TB, feed *threatintel.Feed) []namedProfile {
	mal := feed.ByCategory[paperdata.CatMalware]
	if len(mal) == 0 {
		t.Fatal("threat feed has no malware addresses")
	}
	return []namedProfile{
		{"truth", behavior.Honest(1)},
		{"fixed", behavior.Manipulator(mal[0])},
		{"cname", behavior.Profile{RA: true, Answer: behavior.AnswerCNAME, Name: "ad-redirect.example-hosting.com"}},
		{"txt", behavior.Profile{RA: true, Answer: behavior.AnswerTXT, Name: "blocked by policy"}},
		{"malformed", behavior.Profile{Answer: behavior.AnswerMalformed}},
		{"none", behavior.Refuser()},
	}
}

// newProbeWorker builds a synthesis worker over a 2^18-address universe,
// wired to feed and the default geo registry like a real shard.
func newProbeWorker(t testing.TB, feed *threatintel.Feed) *synthWorker {
	u, err := scan.NewUniverse(1, 14, ipv4.NewReservedBlocklist())
	if err != nil {
		t.Fatal(err)
	}
	reg := geo.DefaultRegistry()
	a, err := population.NewAssigner(u, reg, &population.Population{}, ProberAddr, RootAddr, TLDAddr, AuthAddr)
	if err != nil {
		t.Fatal(err)
	}
	return &synthWorker{
		clusterSize: uint64(paperdata.ClusterSize),
		assigner:    a,
		acc:         analysis.NewAccumulator(analysis.Config{Year: paperdata.Y2018, Threat: feed.DB, Geo: reg}),
		buf:         make([]byte, 0, 512),
		name:        make([]byte, 0, 64),
	}
}

// TestSynthProbeZeroAlloc pins the per-probe path — source draw, qname
// build, response build, encode, decode, accumulate — to zero steady-
// state allocations for every answer kind.
func TestSynthProbeZeroAlloc(t *testing.T) {
	feed := threatintel.NewFeed(paperdata.Y2018, 1)
	w := newProbeWorker(t, feed)
	g := uint64(0)
	for _, np := range probeProfiles(t, feed) {
		cohort := &population.Cohort{Count: 1 << 20, Profile: np.p}
		if n := testing.AllocsPerRun(300, func() {
			if err := w.probe(cohort, g); err != nil {
				t.Fatal(err)
			}
			g++
		}); n != 0 {
			t.Errorf("%s: synthWorker.probe allocates %.1f times per op, want 0", np.name, n)
		}
	}
}

// BenchmarkSynthProbe measures one synthetic probe end to end, per
// answer kind: `go test -run '^$' -bench SynthProbe -benchmem ./internal/core`.
func BenchmarkSynthProbe(b *testing.B) {
	feed := threatintel.NewFeed(paperdata.Y2018, 1)
	for _, np := range probeProfiles(b, feed) {
		b.Run(np.name, func(b *testing.B) {
			w := newProbeWorker(b, feed)
			fresh := w.assigner.Fork()
			cohort := &population.Cohort{Count: 1 << 20, Profile: np.p}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Restart the source draws before the universe runs out.
				if i&0x1FFFF == 0x1FFFF {
					w.assigner = fresh.Fork()
				}
				if err := w.probe(cohort, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package population

import (
	"testing"

	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
	"openresolver/internal/scan"
)

// serialAssignments replays the whole population through one assigner,
// returning every (country, address) draw in order.
func serialAssignments(t *testing.T, a *Assigner, pop *Population) []ipv4.Addr {
	t.Helper()
	var out []ipv4.Addr
	for _, c := range pop.Cohorts {
		for i := uint64(0); i < c.Count; i++ {
			addr, err := a.Next(c.Country)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, addr)
		}
	}
	return out
}

func TestForkAdvanceMatchesSerialWalk(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 10)
	reg := geo.DefaultRegistry()
	base, err := NewAssigner(u, reg, pop)
	if err != nil {
		t.Fatal(err)
	}
	want := serialAssignments(t, base, pop)

	// Split the population at several global draw boundaries; a fork
	// advanced past the prefix must produce the suffix exactly.
	for _, split := range []int{0, 1, len(want) / 3, len(want) / 2, len(want) - 1} {
		fresh, err := NewAssigner(u, reg, pop)
		if err != nil {
			t.Fatal(err)
		}
		fork := fresh.Fork()
		// Count the prefix's draws per kind by replaying cohort order.
		var unpinned uint64
		byCountry := map[string]uint64{}
		g := 0
		for _, c := range pop.Cohorts {
			for i := uint64(0); i < c.Count && g < split; i++ {
				if c.Country == "" {
					unpinned++
				} else {
					byCountry[c.Country]++
				}
				g++
			}
			if g == split {
				break
			}
		}
		for country, n := range byCountry {
			if err := fork.AdvanceCountry(country, n); err != nil {
				t.Fatal(err)
			}
		}
		if err := fork.AdvanceUnpinned(unpinned); err != nil {
			t.Fatal(err)
		}
		// The fork now reproduces the serial suffix.
		g = 0
		for _, c := range pop.Cohorts {
			for i := uint64(0); i < c.Count; i++ {
				if g >= split {
					addr, err := fork.Next(c.Country)
					if err != nil {
						t.Fatal(err)
					}
					if addr != want[g] {
						t.Fatalf("split %d: draw %d = %v, serial %v", split, g, addr, want[g])
					}
				}
				g++
			}
		}
	}
}

func TestForkIsolatesCursors(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 12)
	base, err := NewAssigner(u, geo.DefaultRegistry(), pop)
	if err != nil {
		t.Fatal(err)
	}
	fork := base.Fork()
	a1, err := base.Next("")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fork.Next("")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Errorf("fork's first draw %v differs from parent's %v", a2, a1)
	}
}

func TestAdvanceCountryBounds(t *testing.T) {
	pop, u := buildScaled(t, paperdata.Y2018, 12)
	a, err := NewAssigner(u, geo.DefaultRegistry(), pop)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AdvanceCountry("US", 1<<40); err == nil {
		t.Error("advancing past the reservation succeeded")
	}
}

// BenchmarkAdvanceUnpinned measures the per-draw cost of the serial
// fast-forward a shard worker runs before its first probe.
func BenchmarkAdvanceUnpinned(b *testing.B) {
	pop, err := Build(Config{Year: paperdata.Y2018, SampleShift: 4, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	u, err := scan.NewUniverse(9, 4, ipv4.NewReservedBlocklist())
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAssigner(u, geo.DefaultRegistry(), pop)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := b.N - done
		if n > 1<<24 {
			n = 1 << 24
		}
		if err := a.Fork().AdvanceUnpinned(uint64(n)); err != nil {
			b.Fatal(err)
		}
		done += n
	}
}

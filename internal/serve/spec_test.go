package serve

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestCompileEquivalence pins the submission grammar: the same grid spelled
// as structured fields, as spec-file text, or as text with field overrides
// compiles to the same spec key, so the digest cache collapses all three.
func TestCompileEquivalence(t *testing.T) {
	fields := &JobSpec{
		Years: []string{"2018"},
		Loss:  []string{"none", "loss:0.3"},
		Retry: []string{"0", "2+adaptive"},
		Shift: 16,
		Seed:  1,
	}
	text := &JobSpec{
		SpecText: strings.Join([]string{
			"# equivalence fixture",
			"years 2018",
			"loss none loss:0.3",
			"retry 0 2+adaptive",
			"shift 16",
			"seed 1",
		}, "\n"),
	}
	override := &JobSpec{
		SpecText: "years 2013\nloss none loss:0.3\nretry 0 2+adaptive\nshift 16\nseed 1",
		Years:    []string{"2018"}, // field overrides the text's year axis
	}
	keys := make([]string, 0, 3)
	for i, js := range []*JobSpec{fields, text, override} {
		spec, cells, err := js.Compile()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		keys = append(keys, SpecKey(spec, cells))
	}
	if keys[0] != keys[1] || keys[1] != keys[2] {
		t.Errorf("equivalent submissions hashed differently:\n fields   %s\n text     %s\n override %s",
			keys[0], keys[1], keys[2])
	}
	if keys[0] != equivalenceKey {
		t.Errorf("equivalence fixture key = %s, want the pinned %s", keys[0], equivalenceKey)
	}
}

// Pinned spec keys. orserved names each spec's state directory after its
// key, so a key that changes orphans every persisted artifact and
// checkpoint of that spec.
const (
	// equivalenceKey is TestCompileEquivalence's grid.
	equivalenceKey = "de6d35093b52442678a47a15d5103ef447b171151b65b5b2b17292f40e5c29e1"
	// smokeKey is the smoke grid of make smoke / serve-smoke / fabric-smoke.
	smokeKey = "be129bda314e1e121bbfc5c6fd62505be2ca280a7ff8ba674618e7d07fcc49b8"
)

// TestSmokeSpecKeyPinned: the smoke grid keys the same in every spelling
// and matches the pinned constant.
func TestSmokeSpecKeyPinned(t *testing.T) {
	for _, js := range []*JobSpec{
		{Years: []string{"2018", "2013"}, Loss: []string{"none", "loss:0.2"}, Shift: 14, Seed: 1},
		{SpecText: "years 2018 2013\nloss none loss:0.2\nshift 14\nseed 1\n"},
		{SpecText: "mode sim\nyears 2018\nyears 2013\nloss none\nloss loss:0.2\nretry 0\nworkers 1\nmax-events 2097152\n"},
	} {
		spec, cells, err := js.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if key := SpecKey(spec, cells); key != smokeKey {
			t.Errorf("smoke grid %+v keyed %s, want the pinned %s", js, key, smokeKey)
		}
	}
}

// TestCompileDistinguishesSeeds guards the cache key against the classic
// false-hit: identical grids under different seeds (or shifts) must not
// collide, because their campaign bytes differ.
func TestCompileDistinguishesSeeds(t *testing.T) {
	base := func() *JobSpec {
		return &JobSpec{Years: []string{"2018"}, Loss: []string{"none"}, Retry: []string{"0"}, Shift: 16, Seed: 1}
	}
	key := func(js *JobSpec) string {
		t.Helper()
		spec, cells, err := js.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return SpecKey(spec, cells)
	}
	ref := key(base())
	seed := base()
	seed.Seed = 2
	if key(seed) == ref {
		t.Error("different seeds produced the same spec key")
	}
	shift := base()
	shift.Shift = 14
	if key(shift) == ref {
		t.Error("different shifts produced the same spec key")
	}
}

// TestCompileRejectsBadSpecs: validation errors surface at submission.
func TestCompileRejectsBadSpecs(t *testing.T) {
	bad := []*JobSpec{
		{Years: []string{"1999"}},                            // out-of-range year
		{Loss: []string{"bogus:1"}},                          // unknown impairment
		{Retry: []string{"-1"}},                              // negative budget
		{CellWorkers: []int{-2}},                             // negative workers
		{Mode: "quantum"},                                    // unknown mode
		{SpecText: "years 2018 2018"},                        // duplicate axis value
		{Mode: "synth", Loss: []string{"loss:0.5"}},          // synth has no network
		{SpecText: "retry 2+adaptive\nretry 2+adaptive\n#x"}, // duplicate retry
	}
	for i, js := range bad {
		if _, _, err := js.Compile(); err == nil {
			t.Errorf("bad spec %d compiled without error", i)
		}
	}
}

// TestTenantLimiter drives the token bucket on a fake clock: burst passes,
// the next submission is refused, elapsed time refills fractionally, and
// MaxActive holds independently of the rate.
func TestTenantLimiter(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newTenantLimiter(TenantPolicy{SubmitsPerSec: 2, Burst: 2, MaxActive: 3},
		func() time.Time { return now })

	for i := 0; i < 2; i++ {
		if err := l.admit("a"); err != nil {
			t.Fatalf("burst submission %d refused: %v", i, err)
		}
	}
	if err := l.admit("a"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("over-rate submission got %v, want ErrAdmission", err)
	}
	// An independent tenant has its own bucket.
	if err := l.admit("b"); err != nil {
		t.Fatalf("tenant b refused by tenant a's bucket: %v", err)
	}
	// Half a second accrues one token at 2/s.
	now = now.Add(500 * time.Millisecond)
	if err := l.admit("a"); err != nil {
		t.Fatalf("refill not credited: %v", err)
	}
	// MaxActive: tenant a now holds 3 active jobs; a fourth is refused
	// even after the bucket refills.
	now = now.Add(time.Hour)
	if err := l.admit("a"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("fourth active job got %v, want ErrAdmission (MaxActive=3)", err)
	}
	l.release("a")
	if err := l.admit("a"); err != nil {
		t.Fatalf("slot released but admission still refused: %v", err)
	}
}

// TestTenantLimiterUnlimited: the zero policy admits everything.
func TestTenantLimiterUnlimited(t *testing.T) {
	l := newTenantLimiter(TenantPolicy{}, func() time.Time { return time.Unix(0, 0) })
	for i := 0; i < 100; i++ {
		if err := l.admit("x"); err != nil {
			t.Fatalf("zero policy refused submission %d: %v", i, err)
		}
	}
}

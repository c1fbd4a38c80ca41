// Package sweep expands a declarative campaign grid — calibration year ×
// network impairment × retry policy × worker count — into a deterministic
// list of cells, executes them over a bounded worker pool reusing the
// campaign engines of internal/core, and renders a comparison matrix
// against the loss-free baseline cell of each year. Cells are bit-identical
// to the same campaign run standalone (pinned against internal/core's
// golden digests), cell scheduling never affects output ordering, and
// completed cells persist as JSON artifacts so an interrupted sweep can
// resume without re-running them (DESIGN.md §10).
package sweep

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"

	"openresolver/internal/drift"
	"openresolver/internal/netsim"
	"openresolver/internal/paperdata"
)

// YearVal is one value of the calibration-year axis. Pure years select the
// paper's calibrated 2013 or 2018 population; fractional labels such as
// "2015.5" interpolate between them through drift.Interpolator.
type YearVal struct {
	Label  string
	Pure   bool
	Year   paperdata.Year // pure years only
	Weight float64        // 2018 share, interpolated years only
}

// ParseYear parses a year axis value: "2013", "2018", or a fractional
// calendar position in (2013, 2018) such as "2015.5".
func ParseYear(s string) (YearVal, error) {
	switch s {
	case "2013":
		return YearVal{Label: s, Pure: true, Year: paperdata.Y2013}, nil
	case "2018":
		return YearVal{Label: s, Pure: true, Year: paperdata.Y2018}, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return YearVal{}, fmt.Errorf("sweep: year %q is neither 2013, 2018 nor a fractional position", s)
	}
	if f <= 2013 || f >= 2018 {
		return YearVal{}, fmt.Errorf("sweep: interpolated year %q outside (2013, 2018)", s)
	}
	w := (f - 2013) / 5
	return YearVal{Label: drift.Label(w), Weight: w}, nil
}

// LossVal is one value of the impairment axis: "none" (the loss-free
// baseline candidate) or a netsim.ParseImpairments spec.
type LossVal struct {
	Label string
	Imps  []netsim.Impairment
}

// Pristine reports whether the value leaves the network untouched.
func (l LossVal) Pristine() bool { return len(l.Imps) == 0 }

// ParseLoss parses a loss axis value through the same impairment grammar
// the campaign CLIs expose; "none" and "" mean the pristine network.
func ParseLoss(s string) (LossVal, error) {
	if s == "" {
		s = "none"
	}
	imps, err := netsim.ParseImpairments(s)
	if err != nil {
		return LossVal{}, fmt.Errorf("sweep: loss %q: %w", s, err)
	}
	return LossVal{Label: s, Imps: imps}, nil
}

// RetryPolicy is one value of the retry axis: the prober's retransmission
// budget plus the adaptive-RTO and upstream-backoff switches.
type RetryPolicy struct {
	Retries  int
	Adaptive bool
	Backoff  bool
}

// Label renders the policy in its canonical spec form.
func (p RetryPolicy) Label() string {
	s := strconv.Itoa(p.Retries)
	if p.Adaptive {
		s += "+adaptive"
	}
	if p.Backoff {
		s += "+backoff"
	}
	return s
}

// zero reports whether the policy is the paper's single-shot prober.
func (p RetryPolicy) zero() bool { return p == RetryPolicy{} }

// ParseRetryPolicy parses a retry axis value: a retransmission budget
// optionally extended with "+adaptive" (Jacobson/Karn RTO) and "+backoff"
// (resolver upstream backoff) in any order, e.g. "0", "5+adaptive",
// "2+adaptive+backoff". "none" is an alias for "0".
func ParseRetryPolicy(s string) (RetryPolicy, error) {
	parts := strings.Split(s, "+")
	head := strings.TrimSpace(parts[0])
	var p RetryPolicy
	if head == "none" {
		head = "0"
	}
	n, err := strconv.Atoi(head)
	if err != nil || n < 0 {
		return p, fmt.Errorf("sweep: retry %q: want <budget>[+adaptive][+backoff]", s)
	}
	p.Retries = n
	for _, opt := range parts[1:] {
		switch strings.TrimSpace(opt) {
		case "adaptive":
			p.Adaptive = true
		case "backoff":
			p.Backoff = true
		default:
			return RetryPolicy{}, fmt.Errorf("sweep: retry %q: unknown option %q", s, opt)
		}
	}
	return p, nil
}

// Spec is the declarative sweep grid: four axes plus the scalars every
// cell shares. Nil axes take defaults when the grid is expanded (2018 /
// none / single-shot / one worker); explicitly empty axes are an error.
type Spec struct {
	Years   []YearVal
	Loss    []LossVal
	Retry   []RetryPolicy
	Workers []int

	// Mode selects the campaign engine: "sim" (default; impairments and
	// retry policies apply) or "synth" (the streaming engine, where the
	// workers axis scales and the network axes must stay pristine).
	Mode string
	// Shift scales every cell to 1/2^Shift (default 14; sim needs ≥ 6).
	Shift uint8
	// Seed drives every cell's randomness (default 1).
	Seed int64
	// PPS overrides the probe rate (0 = paper value).
	PPS uint64
	// MaxEvents bounds each sim cell's event queue (default 2^21; forced
	// to 0 in synth mode, whose engine rejects any fault plan).
	MaxEvents int
}

// Cell is one expanded grid point. Index is the cell's position in the
// deterministic expansion order (years outermost, workers innermost) and
// fixes its place in the matrix regardless of execution scheduling.
type Cell struct {
	Index   int
	Year    YearVal
	Loss    LossVal
	Retry   RetryPolicy
	Workers int
}

// Key is the cell's canonical identity within its spec's shared scalars.
func (c Cell) Key() string {
	return fmt.Sprintf("year=%s loss=%s retry=%s workers=%d",
		c.Year.Label, c.Loss.Label, c.Retry.Label(), c.Workers)
}

// Slug is a filesystem-safe name for the cell's artifact, combining a
// readable prefix with a short hash of the full key (impairment specs
// collapse to underscores, so the hash keeps distinct cells distinct).
func (c Cell) Slug() string {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				return r
			default:
				return '_'
			}
		}, s)
	}
	sum := sha256.Sum256([]byte(c.Key()))
	return fmt.Sprintf("%s-%s-%s-w%d-%s",
		clean(c.Year.Label), clean(c.Loss.Label), clean(c.Retry.Label()),
		c.Workers, hex.EncodeToString(sum[:4]))
}

// normalize fills defaulted fields in place.
func (s *Spec) normalize() {
	if s.Mode == "" {
		s.Mode = "sim"
	}
	if s.Shift == 0 {
		s.Shift = 14
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Years == nil {
		s.Years = []YearVal{{Label: "2018", Pure: true, Year: paperdata.Y2018}}
	}
	if s.Loss == nil {
		s.Loss = []LossVal{{Label: "none"}}
	}
	if s.Retry == nil {
		s.Retry = []RetryPolicy{{}}
	}
	if s.Workers == nil {
		s.Workers = []int{1}
	}
	if s.MaxEvents == 0 && s.Mode == "sim" {
		s.MaxEvents = 1 << 21
	}
	if s.Mode == "synth" {
		s.MaxEvents = 0
	}
}

// Cells validates the spec and expands the grid in deterministic order:
// years outermost, then loss, then retry, then workers. Duplicate grid
// points and empty axes are errors, as are network axes in synth mode.
func (s *Spec) Cells() ([]Cell, error) {
	s.normalize()
	switch s.Mode {
	case "sim":
		if s.Shift < 6 {
			return nil, fmt.Errorf("sweep: sim mode needs shift ≥ 6 (got %d)", s.Shift)
		}
	case "synth":
		for _, l := range s.Loss {
			if !l.Pristine() {
				return nil, fmt.Errorf("sweep: loss %q needs sim mode (the synthetic engine has no network to impair)", l.Label)
			}
		}
		for _, p := range s.Retry {
			if !p.zero() {
				return nil, fmt.Errorf("sweep: retry policy %q needs sim mode", p.Label())
			}
		}
	default:
		return nil, fmt.Errorf("sweep: unknown mode %q (want sim or synth)", s.Mode)
	}
	for name, n := range map[string]int{
		"years": len(s.Years), "loss": len(s.Loss),
		"retry": len(s.Retry), "workers": len(s.Workers),
	} {
		if n == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values (empty grid)", name)
		}
	}
	for _, w := range s.Workers {
		if w < 0 {
			return nil, fmt.Errorf("sweep: workers %d is negative", w)
		}
	}

	var cells []Cell
	seen := make(map[string]bool)
	for _, y := range s.Years {
		for _, l := range s.Loss {
			for _, p := range s.Retry {
				for _, w := range s.Workers {
					c := Cell{Index: len(cells), Year: y, Loss: l, Retry: p, Workers: w}
					if key := c.Key(); seen[key] {
						return nil, fmt.Errorf("sweep: duplicate cell %s", key)
					} else {
						seen[key] = true
					}
					cells = append(cells, c)
				}
			}
		}
	}
	return cells, nil
}

// Set applies one directive of the spec-file grammar to s. Axis
// directives (years, loss, retry, workers) take one or more values and
// append them; scalar directives (mode, shift, seed, pps, max-events) take
// exactly one value and replace the current one. It is the one parser of
// grid text: ParseSpecFile, orsweep's flags and serve.JobSpec all apply
// their directives through it, and whole-grid validation stays in Cells.
func (s *Spec) Set(directive string, vals ...string) error {
	switch directive {
	case "years", "loss", "retry", "workers":
		if len(vals) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", directive)
		}
	default:
		if len(vals) != 1 {
			return fmt.Errorf("sweep: directive %q wants exactly one value", directive)
		}
	}
	for _, v := range vals {
		if err := s.set(directive, v); err != nil {
			return err
		}
	}
	return nil
}

// Override is Set for a front end whose values replace the spec file's:
// an axis directive first clears the axis, so its values are the axis.
func (s *Spec) Override(directive string, vals ...string) error {
	switch directive {
	case "years":
		s.Years = nil
	case "loss":
		s.Loss = nil
	case "retry":
		s.Retry = nil
	case "workers":
		s.Workers = nil
	}
	return s.Set(directive, vals...)
}

// set applies one value of one directive.
func (s *Spec) set(directive, v string) error {
	switch directive {
	case "years":
		y, err := ParseYear(v)
		if err != nil {
			return err
		}
		s.Years = append(s.Years, y)
	case "loss":
		l, err := ParseLoss(v)
		if err != nil {
			return err
		}
		s.Loss = append(s.Loss, l)
	case "retry":
		p, err := ParseRetryPolicy(v)
		if err != nil {
			return err
		}
		s.Retry = append(s.Retry, p)
	case "workers":
		w, err := strconv.Atoi(v)
		if err != nil || w < 0 {
			return fmt.Errorf("sweep: workers %q: want a non-negative integer", v)
		}
		s.Workers = append(s.Workers, w)
	case "mode":
		s.Mode = v
	case "shift":
		n, err := strconv.ParseUint(v, 10, 8)
		if err != nil {
			return fmt.Errorf("sweep: shift %q: %w", v, err)
		}
		s.Shift = uint8(n)
	case "seed":
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("sweep: seed %q: %w", v, err)
		}
		s.Seed = n
	case "pps":
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("sweep: pps %q: %w", v, err)
		}
		s.PPS = n
	case "max-events":
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("sweep: max-events %q: want a non-negative integer", v)
		}
		s.MaxEvents = n
	default:
		return fmt.Errorf("sweep: unknown directive %q", directive)
	}
	return nil
}

// ParseSpecFile reads the small text grid format: one directive per line,
// values space-separated, '#' comments, each line applied through Set
// (axis lines append, scalar lines take the last value). Example:
//
//	# 2×2 robustness grid
//	mode sim
//	shift 14
//	years 2018 2013
//	loss none ge:0.05,0.2,0.125,1
//	retry 0 5+adaptive+backoff
//	workers 1
func ParseSpecFile(r io.Reader) (*Spec, error) {
	s := &Spec{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if err := s.Set(fields[0], fields[1:]...); err != nil {
			return nil, fmt.Errorf("sweep: spec line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: read spec: %w", err)
	}
	return s, nil
}

package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// appendNameOracle is the original byte-at-a-time name encoder, kept
// verbatim as the reference the bulk-copy appendName is held to: every
// input must encode to the same bytes and fail with the same error.
func appendNameOracle[T string | []byte](dst []byte, name T) ([]byte, error) {
	if len(name) == 0 || (len(name) == 1 && name[0] == '.') {
		return append(dst, 0), nil
	}
	// Trim one trailing dot, but only if it is a real separator (an even
	// number of backslashes precedes it).
	if name[len(name)-1] == '.' {
		bs := 0
		for i := len(name) - 2; i >= 0 && name[i] == '\\'; i-- {
			bs++
		}
		if bs%2 == 0 {
			name = name[:len(name)-1]
		}
	}
	wireLen := 1 // terminating root octet
	lenPos := len(dst)
	dst = append(dst, 0)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '\\':
			if i+1 >= len(name) {
				return nil, fmt.Errorf("dnswire: dangling escape in %q", string(name))
			}
			next := name[i+1]
			if next >= '0' && next <= '9' {
				if i+3 >= len(name) || !isDigit(name[i+2]) || !isDigit(name[i+3]) {
					return nil, fmt.Errorf("dnswire: bad \\DDD escape in %q", string(name))
				}
				v := int(next-'0')*100 + int(name[i+2]-'0')*10 + int(name[i+3]-'0')
				if v > 255 {
					return nil, fmt.Errorf("dnswire: \\DDD escape %d out of range in %q", v, string(name))
				}
				dst = append(dst, byte(v))
				i += 3
				continue
			}
			dst = append(dst, next)
			i++
		case c == '.':
			var err error
			if wireLen, err = closeLabel(dst, lenPos, wireLen); err != nil {
				return nil, nameErr(err, string(name))
			}
			lenPos = len(dst)
			dst = append(dst, 0)
		default:
			dst = append(dst, c)
		}
	}
	if _, err := closeLabel(dst, lenPos, wireLen); err != nil {
		return nil, nameErr(err, string(name))
	}
	return append(dst, 0), nil
}

// appendPresentationOracle is the original per-octet label renderer, the
// reference for appendPresentation's bulk-copy prefix.
func appendPresentationOracle(dst []byte, label []byte) []byte {
	for _, c := range label {
		switch {
		case c == '.' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x21 || c > 0x7E:
			dst = append(dst, '\\', '0'+c/100, '0'+c/10%10, '0'+c%10)
		case c >= 'A' && c <= 'Z':
			dst = append(dst, c+'a'-'A')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

var nameSentinels = []error{ErrEmptyLabel, ErrLabelTooLong, ErrNameTooLong}

// checkNameCodec holds appendName, appendNameBytes and appendPresentation
// to their oracles for one input, and checks the decode round trip of
// every name that encodes.
func checkNameCodec(t *testing.T, name string) {
	t.Helper()
	prefix := []byte{0xAA, 0xBB}
	want, wantErr := appendNameOracle(append([]byte(nil), prefix...), name)
	got, gotErr := appendName(append([]byte(nil), prefix...), name)
	gotB, gotBErr := appendNameBytes(append([]byte(nil), prefix...), []byte(name))
	for _, c := range []struct {
		path string
		b    []byte
		err  error
	}{{"appendName", got, gotErr}, {"appendNameBytes", gotB, gotBErr}} {
		if (c.err == nil) != (wantErr == nil) {
			t.Fatalf("%s(%q): err %v, oracle err %v", c.path, name, c.err, wantErr)
		}
		if wantErr != nil {
			for _, s := range nameSentinels {
				if errors.Is(c.err, s) != errors.Is(wantErr, s) {
					t.Fatalf("%s(%q): errors.Is(%v) = %v, oracle %v (%v)",
						c.path, name, s, errors.Is(c.err, s), errors.Is(wantErr, s), wantErr)
				}
			}
			if c.err.Error() != wantErr.Error() {
				t.Fatalf("%s(%q): err %q, oracle %q", c.path, name, c.err, wantErr)
			}
			continue
		}
		if !bytes.Equal(c.b, want) {
			t.Fatalf("%s(%q) = %x, oracle %x", c.path, name, c.b, want)
		}
	}

	if got, want := appendPresentation(prefix, []byte(name)), appendPresentationOracle(prefix, []byte(name)); !bytes.Equal(got, want) {
		t.Fatalf("appendPresentation(%q) = %q, oracle %q", name, got, want)
	}

	if wantErr != nil {
		return
	}
	wire := want[len(prefix):]
	var m Message
	dec, off, err := m.readName(wire, 0)
	if err != nil || off != len(wire) {
		t.Fatalf("readName(appendName(%q)) = %q, %d, %v", name, dec, off, err)
	}
	// The decoded presentation form re-encodes to the original wire name,
	// case-folded (decoding lowercases).
	back, err := appendName(nil, dec)
	if err != nil || !bytes.Equal(back, asciiLower(wire)) {
		t.Fatalf("appendName(readName(%q)) = %x, %v; want %x", name, back, err, asciiLower(wire))
	}
	// Names made only of octets that need no escaping decode to exactly
	// their canonical form.
	if plainName(name) && dec != CanonicalName(name) {
		t.Fatalf("readName(appendName(%q)) = %q, want CanonicalName %q", name, dec, CanonicalName(name))
	}
}

// asciiLower maps 'A'-'Z' to lowercase. Applied to a whole wire name it
// folds only label octets: length octets are at most 63, below 'A'.
func asciiLower(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return out
}

// plainName reports whether every octet of name is printable ASCII other
// than a backslash: the names whose presentation form is unambiguous.
func plainName(name string) bool {
	for i := 0; i < len(name); i++ {
		if c := name[i]; c < 0x21 || c > 0x7E || c == '\\' {
			return false
		}
	}
	return true
}

var nameCodecCases = []string{
	"", ".", "..", "a", "a.", "a..", ".a", "a..b", "A.B.", "or000.0000001.ucfsealresearch.net",
	"WWW.Example.COM.", `a\.`, `a\\.`, `a\\\.`, `a\.b`, `\.`, `\\`, `\`, `a\`, `\065bc`, `\256`,
	`\1`, `\12`, `\12x`, `a.\0001.b`, "sp ace.net", "tab\t.net", "hi\xff.net", "a" + strings.Repeat(".b", 127),
	strings.Repeat("a", 63) + ".net", strings.Repeat("a", 64) + ".net", strings.Repeat("a", 64),
	strings.Repeat("abcdefgh.", 28) + "toolong.", strings.Repeat("x.", 127) + "y",
	strings.Repeat(`\065`, 63) + ".net", strings.Repeat(`\065`, 64), strings.Repeat(`a\..`, 70),
}

// TestAppendNameMatchesOracle runs the differential check over the edge
// cases: escapes, root forms, empty labels and every length limit.
func TestAppendNameMatchesOracle(t *testing.T) {
	for _, name := range nameCodecCases {
		checkNameCodec(t, name)
	}
}

// FuzzAppendName is the differential fuzz target of the name codec's bulk
// paths against the byte-at-a-time oracles above, plus the decode round
// trip: `go test -fuzz=FuzzAppendName ./internal/dnswire`.
func FuzzAppendName(f *testing.F) {
	for _, name := range nameCodecCases {
		f.Add(name)
	}
	f.Fuzz(checkNameCodec)
}

// TestAppendZeroAlloc pins the encode paths to zero allocations into a
// buffer with room: a response for each synthesized-RDATA answer type,
// and a probe query built from a byte-slice name.
func TestAppendZeroAlloc(t *testing.T) {
	q := NewQuery(7, "or003.0001234.ucfsealresearch.net", TypeA)
	answers := map[string]RR{
		"A":     {Type: TypeA, A: 0x01020304},
		"CNAME": {Type: TypeCNAME, Target: "cname.target.example"},
		"MX":    {Type: TypeMX, Pref: 10, Target: "mx.example.net"},
		"TXT":   {Type: TypeTXT, Target: "v=spf1 -all"},
		"NS":    {Type: TypeNS, Target: "ns1.example.org"},
	}
	buf := make([]byte, 0, 512)
	for typ, rr := range answers {
		resp := NewResponse(q)
		rr.Name, rr.Class, rr.TTL = q.Questions[0].Name, ClassIN, 300
		resp.Answers = append(resp.Answers, rr)
		if n := testing.AllocsPerRun(200, func() {
			var err error
			if buf, err = resp.Append(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Message.Append with a %s answer allocates %.1f times per op, want 0", typ, n)
		}
	}
	name := []byte("or003.0001234.ucfsealresearch.net")
	if n := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = AppendQuery(buf[:0], 7, name, TypeA); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendQuery allocates %.1f times per op, want 0", n)
	}
}

// benchNames are the name shapes the codec sees: the campaign's probe
// names, a manipulated CNAME target, and a 0x20-randomized (mixed-case)
// name that leaves the decoder's bulk path at its first uppercase octet.
var benchNames = []struct{ label, name string }{
	{"probe", "or003.0001234.ucfsealresearch.net"},
	{"target", "ad-redirect.cdn.example-hosting.com"},
	{"mixedcase", "oR003.0001234.UcFsEaLrEsEaRcH.nEt"},
}

func BenchmarkAppendName(b *testing.B) {
	for _, bn := range benchNames {
		b.Run(bn.label, func(b *testing.B) {
			buf := make([]byte, 0, 256)
			b.ReportAllocs()
			b.SetBytes(int64(len(bn.name)))
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = appendName(buf[:0], bn.name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReadName(b *testing.B) {
	for _, bn := range benchNames {
		b.Run(bn.label, func(b *testing.B) {
			wire, err := appendName(nil, bn.name)
			if err != nil {
				b.Fatal(err)
			}
			var m Message
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				m.arena = m.arena[:0]
				if _, _, err := m.readName(wire, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package dnswire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "or000.0000001.ucfsealresearch.net", TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if got.Header.ID != 0x1234 {
		t.Errorf("ID = %#x, want 0x1234", got.Header.ID)
	}
	if !got.Header.RD || got.Header.QR || got.Header.RA || got.Header.AA {
		t.Errorf("flags = %+v, want RD only", got.Header)
	}
	qq, ok := got.Question1()
	if !ok {
		t.Fatal("no question decoded")
	}
	if qq.Name != "or000.0000001.ucfsealresearch.net" {
		t.Errorf("qname = %q", qq.Name)
	}
	if qq.Type != TypeA || qq.Class != ClassIN {
		t.Errorf("qtype/qclass = %v/%v", qq.Type, qq.Class)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	q := NewQuery(7, "www.example.com", TypeA)
	r := NewResponse(q)
	r.Header.RA = true
	r.Header.Rcode = RcodeNoError
	r.AnswerA(0x01020304, 300)
	wire, err := r.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !got.Header.QR || !got.Header.RA || !got.Header.RD {
		t.Errorf("flags: %+v", got.Header)
	}
	a, ok := got.FirstA()
	if !ok || a != 0x01020304 {
		t.Errorf("FirstA = %#x, %v", a, ok)
	}
	if got.Answers[0].Name != "www.example.com" {
		t.Errorf("answer name = %q", got.Answers[0].Name)
	}
	if got.Answers[0].TTL != 300 {
		t.Errorf("TTL = %d", got.Answers[0].TTL)
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	// Every combination of the studied flags must survive the wire,
	// including the deviant ones (RA=0 with answers, AA=1 from a cache).
	for i := 0; i < 1<<5; i++ {
		h := Header{
			ID:    uint16(i * 77),
			QR:    i&1 != 0,
			AA:    i&2 != 0,
			TC:    i&4 != 0,
			RD:    i&8 != 0,
			RA:    i&16 != 0,
			Rcode: Rcode(i % 11),
			Z:     uint8(i % 8),
		}
		m := &Message{Header: h}
		wire := m.MustPack()
		got, err := Unpack(wire)
		if err != nil {
			t.Fatalf("Unpack(%+v): %v", h, err)
		}
		if got.Header != h {
			t.Fatalf("header round trip: got %+v want %+v", got.Header, h)
		}
	}
}

func TestAllRRTypesRoundTrip(t *testing.T) {
	tests := []RR{
		{Name: "a.example.net", Type: TypeA, Class: ClassIN, TTL: 60, A: 0xC0A80101},
		{Name: "example.net", Type: TypeNS, Class: ClassIN, TTL: 3600, Target: "ns1.example.net"},
		{Name: "www.example.net", Type: TypeCNAME, Class: ClassIN, TTL: 60, Target: "example.net"},
		{Name: "example.net", Type: TypeMX, Class: ClassIN, TTL: 60, Pref: 10, Target: "mail.example.net"},
		{Name: "example.net", Type: TypeTXT, Class: ClassIN, TTL: 60, Target: "v=spf1 -all"},
		{Name: "4.3.2.1.in-addr.arpa", Type: TypePTR, Class: ClassIN, TTL: 60, Target: "host.example.net"},
	}
	for _, rr := range tests {
		t.Run(rr.Type.String(), func(t *testing.T) {
			m := &Message{Header: Header{QR: true}, Answers: []RR{rr}}
			wire, err := m.Pack()
			if err != nil {
				t.Fatalf("Pack: %v", err)
			}
			got, err := Unpack(wire)
			if err != nil {
				t.Fatalf("Unpack: %v", err)
			}
			g := got.Answers[0]
			if g.Malformed {
				t.Fatal("round-tripped RR marked malformed")
			}
			if g.Name != rr.Name || g.Type != rr.Type || g.TTL != rr.TTL {
				t.Errorf("got %+v, want %+v", g, rr)
			}
			if g.A != rr.A || g.Target != rr.Target || g.Pref != rr.Pref {
				t.Errorf("decoded fields: got %+v, want %+v", g, rr)
			}
		})
	}
}

func TestEmptyQuestionResponse(t *testing.T) {
	// §IV-B4: some resolvers respond with no question section at all.
	m := &Message{Header: Header{ID: 9, QR: true, Rcode: RcodeServFail}}
	wire := m.MustPack()
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if _, ok := got.Question1(); ok {
		t.Error("expected empty question section")
	}
	if got.Header.Rcode != RcodeServFail {
		t.Errorf("rcode = %v", got.Header.Rcode)
	}
}

func TestMalformedRDATA(t *testing.T) {
	// An A record with 2-byte RDATA (the 2013 "N/A" form) must decode as
	// Malformed rather than fail the whole message.
	m := &Message{
		Header:  Header{QR: true},
		Answers: []RR{{Name: "x.example.net", Type: TypeA, Class: ClassIN, Data: []byte{0, 0}}},
	}
	wire := m.MustPack()
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !got.Answers[0].Malformed {
		t.Error("2-byte A RDATA not marked malformed")
	}
	if _, ok := got.FirstA(); ok {
		t.Error("FirstA returned a malformed record")
	}
}

func TestNameCompressionDecode(t *testing.T) {
	// Hand-build a response using a compression pointer into the question,
	// as BIND emits: answer name = pointer to offset 12.
	q := NewQuery(1, "www.example.com", TypeA)
	wire := q.MustPack()
	// Rewrite counts: 1 answer.
	binary.BigEndian.PutUint16(wire[6:], 1)
	wire[2] |= 0x80        // QR
	rr := []byte{0xC0, 12} // name: pointer to question name
	rr = binary.BigEndian.AppendUint16(rr, uint16(TypeA))
	rr = binary.BigEndian.AppendUint16(rr, uint16(ClassIN))
	rr = binary.BigEndian.AppendUint32(rr, 60)
	rr = binary.BigEndian.AppendUint16(rr, 4)
	rr = append(rr, 1, 2, 3, 4)
	wire = append(wire, rr...)

	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if got.Answers[0].Name != "www.example.com" {
		t.Errorf("compressed name = %q", got.Answers[0].Name)
	}
	if a, _ := got.FirstA(); a != 0x01020304 {
		t.Errorf("A = %#x", a)
	}
}

func TestCompressionPointerLoopRejected(t *testing.T) {
	// A self-pointing name must not hang or crash.
	wire := make([]byte, 12)
	binary.BigEndian.PutUint16(wire[4:], 1) // one question
	wire = append(wire, 0xC0, 12)           // pointer to itself
	wire = append(wire, 0, 1, 0, 1)
	if _, err := Unpack(wire); err == nil {
		t.Fatal("self-pointer accepted")
	}
}

func TestForwardPointerRejected(t *testing.T) {
	wire := make([]byte, 12)
	binary.BigEndian.PutUint16(wire[4:], 1)
	wire = append(wire, 0xC0, 40) // points past itself
	wire = append(wire, 0, 1, 0, 1)
	if _, err := Unpack(wire); err == nil {
		t.Fatal("forward pointer accepted")
	}
}

func TestTruncatedInputs(t *testing.T) {
	q := NewQuery(1, "or000.0000001.ucfsealresearch.net", TypeA)
	wire := q.MustPack()
	for cut := 0; cut < len(wire); cut++ {
		if _, err := Unpack(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestCountOverflowRejected(t *testing.T) {
	wire := make([]byte, 12)
	binary.BigEndian.PutUint16(wire[6:], 0xFFFF) // claims 65535 answers
	if _, err := Unpack(wire); err == nil {
		t.Fatal("absurd answer count accepted")
	}
}

func TestNameLimits(t *testing.T) {
	if _, err := appendName(nil, strings.Repeat("a", 64)+".net"); err == nil {
		t.Error("64-byte label accepted")
	}
	long := strings.Repeat("abcdefgh.", 32) + "net" // > 255 wire bytes
	if _, err := appendName(nil, long); err == nil {
		t.Error("over-long name accepted")
	}
	if _, err := appendName(nil, "a..b"); err == nil {
		t.Error("empty label accepted")
	}
	if b, err := appendName(nil, ""); err != nil || !bytes.Equal(b, []byte{0}) {
		t.Errorf("root encoding = %v, %v", b, err)
	}
	if b, err := appendName(nil, "."); err != nil || !bytes.Equal(b, []byte{0}) {
		t.Errorf("dot root encoding = %v, %v", b, err)
	}
}

func TestCanonicalName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"WWW.Example.COM.", "www.example.com"},
		{"www.example.com", "www.example.com"},
		{"", ""},
		{"NET", "net"},
		{".", ""},
		// An escaped trailing dot belongs to the last label and stays;
		// the backslash parity decides, exactly as in appendName.
		{`a\.`, `a\.`},
		{`A\\.`, `a\\`},
		{`a\\\.`, `a\\\.`},
		{`B.a\.`, `b.a\.`},
	}
	for _, tt := range tests {
		got := CanonicalName(tt.in)
		if got != tt.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", tt.in, got, tt.want)
		}
		// Canonicalizing never turns an encodable name into a bad one, and
		// both forms encode to the same labels modulo case.
		want, err := appendName(nil, tt.in)
		if err != nil {
			t.Fatalf("appendName(%q): %v", tt.in, err)
		}
		if b, err := appendName(nil, got); err != nil || !bytes.Equal(b, asciiLower(want)) {
			t.Errorf("appendName(CanonicalName(%q)) = %x, %v; want %x", tt.in, b, err, asciiLower(want))
		}
	}
}

// randomName builds a syntactically valid random domain name.
func randomName(rng *rand.Rand) string {
	labels := 1 + rng.Intn(4)
	parts := make([]string, labels)
	for i := range parts {
		n := 1 + rng.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = "abcdefghijklmnopqrstuvwxyz0123456789-"[rng.Intn(37)]
		}
		parts[i] = string(b)
	}
	return strings.Join(parts, ".")
}

func TestPropertyMessageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(id uint16, flagBits uint8, rcode uint8, a uint32, ttl uint32) bool {
		name := randomName(rng)
		m := &Message{
			Header: Header{
				ID: id, QR: true,
				AA: flagBits&1 != 0, TC: flagBits&2 != 0,
				RD: flagBits&4 != 0, RA: flagBits&8 != 0,
				Rcode: Rcode(rcode % 16),
			},
			Questions: []Question{{Name: name, Type: TypeA, Class: ClassIN}},
		}
		if flagBits&16 != 0 {
			m.Answers = []RR{{Name: name, Type: TypeA, Class: ClassIN, TTL: ttl, A: a}}
		}
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		if got.Header != m.Header {
			return false
		}
		gq, _ := got.Question1()
		if gq.Name != name {
			return false
		}
		if flagBits&16 != 0 {
			ga, ok := got.FirstA()
			if !ok || ga != a || got.Answers[0].TTL != ttl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnpackNeverPanics(t *testing.T) {
	// Fuzz-style: random byte soup must return an error or a message,
	// never panic. Seed corpus from a valid packet with random mutations.
	rng := rand.New(rand.NewSource(7))
	base := NewQuery(1, "or000.0000001.ucfsealresearch.net", TypeA).MustPack()
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), base...)
		mutations := 1 + rng.Intn(6)
		for j := 0; j < mutations; j++ {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		if rng.Intn(4) == 0 {
			b = b[:rng.Intn(len(b)+1)]
		}
		_, _ = Unpack(b) // must not panic
	}
}

func TestStringForms(t *testing.T) {
	if got := RcodeRefused.String(); got != "Refused" {
		t.Errorf("Rcode string = %q", got)
	}
	if got := Rcode(13).String(); got != "RCODE13" {
		t.Errorf("unknown rcode = %q", got)
	}
	if got := TypeANY.String(); got != "ANY" {
		t.Errorf("type string = %q", got)
	}
	if got := Type(999).String(); got != "TYPE999" {
		t.Errorf("unknown type = %q", got)
	}
	m := NewQuery(3, "X.EXAMPLE.net", TypeA)
	if s := m.String(); !strings.Contains(s, "x.example.net") {
		t.Errorf("message string = %q", s)
	}
}

func BenchmarkPackQuery(b *testing.B) {
	q := NewQuery(1, "or003.4999999.ucfsealresearch.net", TypeA)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = q.Append(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackResponse(b *testing.B) {
	q := NewQuery(1, "or003.4999999.ucfsealresearch.net", TypeA)
	r := NewResponse(q)
	r.Header.RA = true
	r.AnswerA(0xC0A80101, 60)
	wire := r.MustPack()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNameEscaping(t *testing.T) {
	// RFC 1035 §5.1: labels may contain arbitrary octets; presentation
	// form escapes dots, backslashes and non-printables. This is the
	// regression test for the fuzzer-found case of a label containing a
	// literal '.'.
	var wire []byte
	wire = append(wire, make([]byte, 12)...)
	binary.BigEndian.PutUint16(wire[4:], 1)
	wire = append(wire, 1, '.') // one label: "."
	wire = append(wire, 0)      // root
	wire = append(wire, 0, 1, 0, 1)
	msg, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := msg.Question1()
	if q.Name != `\.` {
		t.Fatalf("presentation = %q, want escaped dot", q.Name)
	}
	// Round trip through re-encoding.
	back, err := Unpack(msg.MustPack())
	if err != nil {
		t.Fatal(err)
	}
	if bq, _ := back.Question1(); bq.Name != q.Name {
		t.Errorf("round trip changed name: %q vs %q", bq.Name, q.Name)
	}
}

func TestNameEscapingOctets(t *testing.T) {
	tests := []struct {
		label []byte
		want  string
	}{
		{[]byte{'a', '.', 'b'}, `a\.b`},
		{[]byte{'a', '\\', 'b'}, `a\\b`},
		{[]byte{0x00}, `\000`},
		{[]byte{0xFF}, `\255`},
		{[]byte{' '}, `\032`},
		{[]byte{'A', 'B'}, "ab"}, // case folded
	}
	for _, tt := range tests {
		var wire []byte
		wire = append(wire, make([]byte, 12)...)
		binary.BigEndian.PutUint16(wire[4:], 1)
		wire = append(wire, byte(len(tt.label)))
		wire = append(wire, tt.label...)
		wire = append(wire, 0, 0, 1, 0, 1)
		msg, err := Unpack(wire)
		if err != nil {
			t.Fatalf("%q: %v", tt.label, err)
		}
		q, _ := msg.Question1()
		if q.Name != tt.want {
			t.Errorf("label %q → %q, want %q", tt.label, q.Name, tt.want)
		}
		// And the escaped form re-encodes to the identical wire label.
		enc, err := appendName(nil, q.Name)
		if err != nil {
			t.Fatalf("re-encode %q: %v", q.Name, err)
		}
		lowered := make([]byte, len(tt.label))
		for i, c := range tt.label {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			lowered[i] = c
		}
		wantWire := append([]byte{byte(len(tt.label))}, lowered...)
		wantWire = append(wantWire, 0)
		if !bytes.Equal(enc, wantWire) {
			t.Errorf("wire round trip for %q: %x, want %x", q.Name, enc, wantWire)
		}
	}
}

func TestNameEscapeParsingErrors(t *testing.T) {
	for _, bad := range []string{`a\`, `a\25`, `a\999`, `a\2x5`} {
		if _, err := appendName(nil, bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

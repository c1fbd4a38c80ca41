package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"openresolver/internal/netsim.(*Sim).StepBatch": "openresolver/internal/netsim",
		"openresolver/internal/core.synthesize.func1":   "openresolver/internal/core",
		"runtime.mallocgc":                                    "runtime",
		"internal/runtime/atomic.(*Uint32).Load":              "internal/runtime/atomic",
		"encoding/json.(*decodeState).object":                 "encoding/json",
		"slices.SortFunc[go.shape.[]main.x,go.shape.struct}]": "slices",
		"main.run":                    "main",
		"sync/atomic.(*Int64).Add":    "sync/atomic",
		"crypto/sha256.block":         "crypto/sha256",
		"openresolver/internal/obs.x": "openresolver/internal/obs",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOfPackage(t *testing.T) {
	for pkg, want := range map[string]string{
		"openresolver/internal/netsim": "netsim",
		"openresolver/internal/serve":  "serve",
		"openresolver/internal/obs":    "other",
		"openresolver/internal/geo":    "other",
		"runtime":                      "runtime",
		"internal/runtime/atomic":      "runtime",
		"runtime/internal/sys":         "runtime",
		"runtime/pprof":                "other",
		"encoding/json":                "encoding_json",
		"encoding/binary":              "other",
		"main":                         "other",
	} {
		if got := layerOfPackage(pkg); got != want {
			t.Errorf("layerOfPackage(%q) = %q, want %q", pkg, got, want)
		}
	}
}

// protoBuf is a minimal protobuf encoder for building test profiles.
type protoBuf []byte

func (b *protoBuf) varint(num int, v uint64) {
	*b = binary.AppendUvarint(*b, uint64(num)<<3)
	*b = binary.AppendUvarint(*b, v)
}

func (b *protoBuf) bytes(num int, p []byte) {
	*b = binary.AppendUvarint(*b, uint64(num)<<3|2)
	*b = binary.AppendUvarint(*b, uint64(len(p)))
	*b = append(*b, p...)
}

func (b *protoBuf) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytes(num, p)
}

// testProfile builds a gzipped profile.proto with five functions and four
// samples, mixing packed and unpacked repeated fields and an inlined
// location whose first line is the innermost function.
func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"",
		"openresolver/internal/netsim.(*Sim).StepBatch", // 1
		"runtime.mallocgc",                         // 2
		"encoding/json.(*decodeState).object",      // 3
		"main.run",                                 // 4
		"openresolver/internal/dnswire.appendName", // 5
	}
	var p protoBuf
	sample := func(packed bool, value uint64, locs ...uint64) {
		var s protoBuf
		if packed {
			s.packed(1, locs...)
			s.packed(2, value/1000, value)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
			s.varint(2, value/1000)
			s.varint(2, value)
		}
		p.bytes(2, s)
	}
	sample(true, 6000, 1, 4)  // netsim leaf, called from main
	sample(false, 2000, 2, 1) // runtime leaf
	sample(true, 1000, 3)     // encoding/json
	sample(true, 1000, 5)     // inlined: dnswire inside main
	for fn := uint64(1); fn <= 5; fn++ {
		var f protoBuf
		f.varint(1, fn)
		f.varint(2, fn) // name = string index fn
		p.bytes(5, f)
	}
	location := func(id uint64, fns ...uint64) {
		var l protoBuf
		l.varint(1, id)
		for _, fn := range fns {
			var line protoBuf
			line.varint(1, fn)
			l.bytes(4, line)
		}
		p.bytes(4, l)
	}
	location(1, 1)
	location(2, 2)
	location(3, 3)
	location(4, 4)
	location(5, 5, 4) // dnswire.appendName inlined into main.run
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUSharesByPackage(t *testing.T) {
	flat, err := flatByFunction(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	wantFlat := map[string]int64{
		"openresolver/internal/netsim.(*Sim).StepBatch": 6000,
		"runtime.mallocgc":                         2000,
		"encoding/json.(*decodeState).object":      1000,
		"openresolver/internal/dnswire.appendName": 1000,
	}
	if len(flat) != len(wantFlat) {
		t.Errorf("flat = %v, want %v", flat, wantFlat)
	}
	for fn, v := range wantFlat {
		if flat[fn] != v {
			t.Errorf("flat[%s] = %d, want %d", fn, flat[fn], v)
		}
	}
	shares := cpuShares(flat)
	want := map[string]float64{"netsim": 0.6, "runtime": 0.2, "encoding_json": 0.1, "dnswire": 0.1}
	var total float64
	for _, l := range cpuLayers {
		got, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing from shares", l)
		}
		if math.Abs(got-want[l]) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", l, got, want[l])
		}
		total += got
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v", total)
	}
}

// TestRealProfileParses runs the decoder over a profile the runtime wrote.
func TestRealProfileParses(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	flat, err := flatByFunction(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) == 0 {
		t.Fatalf("no samples in a 300 ms busy profile (x=%v)", x)
	}
	var sum float64
	for _, v := range cpuShares(flat) {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

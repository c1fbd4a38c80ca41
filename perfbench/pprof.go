package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the part of a runtime/pprof CPU profile the
// cpu.* metrics need: each sample's leaf function and its value. The
// profile is a gzipped profile.proto message; only these fields are read:
//
//	Profile:  sample=2, location=4, function=5, string_table=6
//	Sample:   location_id=1 (packed or repeated), value=2 (same)
//	Location: id=1, line=4
//	Line:     function_id=1
//	Function: id=1, name=2 (string table index)

// flatByFunction returns the last sample value (CPU nanoseconds for a CPU
// profile) summed by the function that was executing — flat, or self,
// attribution. The leaf of a sample is its first location; of that
// location's lines, the first is the innermost inlined function.
func flatByFunction(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id → leaf function id
		fnName  = map[uint64]int64{}  // function id → string index
		strs    []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wt, v, b)
				case 2:
					for _, u := range appendUints(nil, wt, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			first := true
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if !first {
						return nil
					}
					first = false
					return eachField(b, func(num, wt int, v uint64, b []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flat := map[string]int64{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) == 0 {
			continue
		}
		name := "?"
		if idx, ok := fnName[locFn[s.locs[0]]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		flat[name] += s.vals[len(s.vals)-1]
	}
	return flat, nil
}

// appendUints decodes a repeated integer field that may arrive packed
// (wire type 2) or as one varint per occurrence (wire type 0).
func appendUints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// packageOf returns the import path of a symbolized Go function name:
// "openresolver/internal/netsim.(*Sim).StepBatch" → "openresolver/internal/netsim",
// "runtime.mallocgc" → "runtime". Generic instantiation brackets are
// dropped first, since their type arguments may contain slashes and dots.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuLayers are the layers the cpu.* shares attribute profile time to:
// the repository packages a probe crosses, the serving stack, the Go
// runtime and encoding/json. Everything else — other internal packages,
// the rest of the standard library, this benchmark — is "other".
var cpuLayers = []string{
	"population", "scan", "netsim", "prober", "dnssrv", "behavior",
	"dnswire", "analysis", "core", "fabric", "sweep", "serve",
	"runtime", "encoding_json", "other",
}

// layerOfPackage maps an import path to its cpu.* layer.
func layerOfPackage(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "openresolver/internal/"); ok {
		for _, l := range cpuLayers[:12] {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"),
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "encoding_json"
	}
	return "other"
}

// cpuShares aggregates a flat profile into each layer's share of the
// profile's total, with every layer of cpuLayers present.
func cpuShares(flat map[string]int64) map[string]float64 {
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total int64
	for _, v := range flat {
		total += v
	}
	if total == 0 {
		return shares
	}
	for fn, v := range flat {
		shares[layerOfPackage(packageOf(fn))] += float64(v) / float64(total)
	}
	return shares
}

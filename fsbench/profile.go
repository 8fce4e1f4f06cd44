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

// stackSample is one CPU-profile sample: its stack of function names, leaf
// first, and the CPU time it stands for.
type stackSample struct {
	stack []string
	ns    int64
}

var errTruncated = errors.New("profile: truncated protobuf")

// parseProfile decodes a runtime/pprof CPU profile (gzipped profile.proto)
// into stacks. It reads only the fields the fold needs: samples, locations,
// functions and the string table.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		strs    []string
		raw     []rawSample
		funcs   = map[uint64]uint64{}   // function id → name string index
		locFunc = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, v, b)
				case 2:
					s.values, err = appendUints(s.values, v, b)
				}
				return err
			})
			raw = append(raw, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(raw))
	for _, s := range raw {
		if len(s.values) == 0 {
			continue
		}
		var st stackSample
		// Go CPU profiles carry [samples, cpu nanoseconds]; the last value
		// is the time.
		st.ns = int64(s.values[len(s.values)-1])
		for _, l := range s.locs {
			for _, f := range locFunc[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					st.stack = append(st.stack, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields calls fn for every field of one protobuf message: v holds a varint
// or fixed-width value, b the payload of a length-delimited field.
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field's values, packed (b non-nil)
// or one per field.
func appendUints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// cumulativeFuncs are the functions whose cumulative time the fold reports,
// by their name under fscoherence/internal/.
var cumulativeFuncs = []string{
	"sim.(*System).stepCycle",
	"sim.(*System).skipAhead",
	"coherence.(*Warmer).Access",
}

// profileFold is a CPU profile folded by layer. Every sample's time goes to
// one layer: the nearest frame to the leaf that belongs to one. Standard
// library frames (sort, maps, the allocator) belong to no layer, so their
// time goes to the layer that called them; coroutine switches and garbage
// collection are layers of their own. A stack with no layer frame at all
// (scheduler, profiler) is unattributed.
type profileFold struct {
	TotalNS        int64            `json:"total_ns"`
	Samples        int              `json:"samples"`
	SelfNS         map[string]int64 `json:"self_ns"`
	CumulativeNS   map[string]int64 `json:"cumulative_ns"`
	UnattributedNS int64            `json:"unattributed_ns"`
}

func foldProfile(samples []stackSample) profileFold {
	f := profileFold{SelfNS: map[string]int64{}, CumulativeNS: map[string]int64{}}
	for _, s := range samples {
		f.TotalNS += s.ns
		f.Samples++
		layer := ""
		seen := map[string]bool{}
		for _, fr := range s.stack {
			name := stripGenerics(fr)
			if layer == "" {
				layer = layerOf(name)
			}
			for _, c := range cumulativeFuncs {
				if name == "fscoherence/internal/"+c && !seen[c] {
					seen[c] = true
					f.CumulativeNS[c] += s.ns
				}
			}
		}
		if layer == "" {
			f.UnattributedNS += s.ns
		} else {
			f.SelfNS[layer] += s.ns
		}
	}
	return f
}

// share returns ns as a fraction of the profile's total time.
func (f profileFold) share(ns int64) float64 {
	if f.TotalNS == 0 {
		return 0
	}
	return float64(ns) / float64(f.TotalNS)
}

// gcPrefixes name the runtime functions that do garbage-collection work.
var gcPrefixes = []string{
	"runtime.gc", "runtime.GC", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scan", "runtime.greyobject", "runtime.sweepone",
	"runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
}

// layerOf maps a function name (generics stripped) to its layer: the
// package under fscoherence/internal/ (sub-packages fold into their
// parent), "fscoherence" for the root package, "bench" for this benchmark,
// "runtime.coro" for coroutine switches, "runtime.gc" for the collector, or
// "" for a frame that belongs to no layer.
func layerOf(name string) string {
	pkg := packageOf(name)
	switch {
	case pkg == "iter" || strings.HasPrefix(name, "runtime.coro"):
		return "runtime.coro"
	case pkg == "runtime":
		for _, p := range gcPrefixes {
			if strings.HasPrefix(name, p) {
				return "runtime.gc"
			}
		}
		return ""
	case pkg == "fscoherence":
		return "fscoherence"
	case pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "fscoherence/internal/"):
		l := strings.TrimPrefix(pkg, "fscoherence/internal/")
		if i := strings.IndexByte(l, '/'); i >= 0 {
			l = l[:i]
		}
		return l
	}
	return ""
}

// packageOf returns the import path of a function name: everything before
// the first dot after the last slash.
func packageOf(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// stripGenerics removes bracketed type arguments, so a generic instance
// such as pkg.F[go.shape.int].func1 names its defining package's pkg.F.func1.
func stripGenerics(name string) string {
	if strings.IndexByte(name, '[') < 0 {
		return name
	}
	var b strings.Builder
	depth := 0
	for _, r := range name {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Self time per module from a runtime/pprof CPU profile, so that time
// inside Kernel.Run is split by module without instrumenting the
// program. The profile is the gzipped protobuf of profile.proto; only
// the fields read here are decoded.

// modules are the layers self time is reported for, in report order.
var modules = []string{"des", "kpn", "ft", "rtc", "topo", "obs", "codec", "runtime", "other"}

// moduleOf maps a repository package path to its module ("" for a
// package outside the repository).
func moduleOf(pkg string) string {
	const repo = "ftpn/internal/"
	if !strings.HasPrefix(pkg, repo) {
		return ""
	}
	switch p, _, _ := strings.Cut(strings.TrimPrefix(pkg, repo), "/"); p {
	case "des", "kpn", "rtc", "topo", "obs":
		return p
	case "ft", "fault":
		return "ft"
	case "codec", "dsp", "apps":
		return "codec"
	default:
		return "other"
	}
}

// pkgOf returns the package path of a symbol such as
// "ftpn/internal/des.(*Kernel).Run" or "runtime.chansend".
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		head = fn[:i] // type arguments and receivers may hold paths too
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// attribute picks the module a sample's CPU time belongs to, from its
// frames leaf first: runtime when the leaf is the Go runtime, else the
// nearest repository frame, so standard-library code (hash/fnv under
// Token.Hash, sort under the flight recorder) counts for its caller.
func attribute(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if isRuntime(pkgOf(frames[0])) {
		return "runtime"
	}
	for _, fn := range frames {
		if m := moduleOf(pkgOf(fn)); m != "" {
			return m
		}
	}
	return "other"
}

// selfSeconds decodes a CPU profile and returns self CPU seconds per
// module.
func selfSeconds(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	valueIdx := -1
	for i, vt := range p.sampleTypes {
		if p.str(vt[0]) == "cpu" && p.str(vt[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	ns := map[string]int64{}
	var frames []string
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			continue
		}
		frames = frames[:0]
		for _, locID := range s.locations {
			// A location's lines run from the innermost inlined call
			// to its outermost caller.
			for _, fnID := range p.locations[locID] {
				frames = append(frames, p.str(p.functions[fnID]))
			}
		}
		ns[attribute(frames)] += s.values[valueIdx]
	}
	out := map[string]float64{}
	for _, m := range modules {
		out[m] = float64(ns[m]) / 1e9
	}
	return out, nil
}

type pprofSample struct {
	locations []uint64
	values    []int64
}

type pprofProfile struct {
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []pprofSample
	locations   map[uint64][]uint64 // location id -> function ids
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

func (p *pprofProfile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// field is one decoded protobuf field: a varint or a byte slice.
type field struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// fields splits a protobuf message into its fields.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints reads a repeated varint field in packed or unpacked form.
func varints(f field, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pprofProfile, error) {
	top, err := fields(b)
	if err != nil {
		return nil, err
	}
	p := &pprofProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var vt [2]int64
			for _, g := range sub {
				if g.num == 1 || g.num == 2 {
					vt[g.num-1] = int64(g.value)
				}
			}
			p.sampleTypes = append(p.sampleTypes, vt)
		case 2: // sample
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var s pprofSample
			var vals []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					if s.locations, err = varints(g, s.locations); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = varints(g, vals); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.value
				case 4: // line
					lf, err := fields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range lf {
						if h.num == 1 {
							fns = append(fns, h.value)
						}
					}
				}
			}
			p.locations[id] = fns
		case 5: // function
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int64(g.value)
				}
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
	}
	return p, nil
}

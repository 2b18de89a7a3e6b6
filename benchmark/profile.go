package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// The profile buckets: the repo's packages as layers, plus two for stacks
// that never enter repo code. Small packages fold into the layer whose work
// they do, so a bucket is large enough to read at 100 Hz.
var layers = []string{
	"sim", "disk", "pagecache", "localfs", "netsim", "hdfs", "mapred", "compress",
	"datagen", "workloads", "iostat", "faults", "core", "go_gc", "go_sched",
}

// layerOther collects stacks no rule claims. It is reported, not declared as
// a metric: the acceptance bar is that it stays under 5 % of samples.
const layerOther = "other"

var foldInto = map[string]string{
	"cpustat": "iostat", "stats": "iostat", "trace": "iostat",
	"chaos":   "faults",
	"cluster": "core", "report": "core", "runcache": "core", "bench": "core", "cliutil": "core",
}

// collectorFuncs are prefixes (after "runtime.") of the garbage collector's
// own functions.
var collectorFuncs = []string{"gc", "bgsweep", "bgscavenge", "scanobject", "greyobject", "markroot", "sweepone", "(*mspan).sweep", "(*gcWork)", "(*sweepLocked)", "wbBufFlush"}

// layerOf charges one stack (leaf first) to a layer. The nearest repo frame
// wins, so runtime and stdlib leaves — memmove, flate, strconv, mallocgc —
// are charged to the layer that called them. The benchmark's own frames
// (package main: the io_storm driver, the codec wrapper) count as core.
// Stacks with no repo frame are the Go runtime working for itself: collector
// frames go to go_gc, any other runtime-only stack to go_sched.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l, ok := repoLayer(fn); ok {
			return l
		}
	}
	sawRuntime := false
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			continue
		}
		sawRuntime = true
		name := strings.TrimPrefix(fn, "runtime.")
		for _, gc := range collectorFuncs {
			if strings.HasPrefix(name, gc) {
				return "go_gc"
			}
		}
	}
	if sawRuntime {
		return "go_sched"
	}
	return layerOther
}

func repoLayer(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "iochar/internal/"):
		pkg, _, _ := strings.Cut(strings.TrimPrefix(fn, "iochar/internal/"), ".")
		if to, ok := foldInto[pkg]; ok {
			return to, true
		}
		for _, l := range layers {
			if l == pkg {
				return l, true
			}
		}
		return layerOther, true
	case strings.HasPrefix(fn, "iochar."), strings.HasPrefix(fn, "main."):
		return "core", true
	}
	return "", false
}

// cpuByLayer parses CPU profiles written by runtime/pprof and returns CPU
// seconds per layer plus the share of samples whose leaf is a bulk byte copy
// or clear (the io_storm acceptance check).
func cpuByLayer(profs ...[]byte) (sec map[string]float64, copyShare float64, err error) {
	var samples []profSample
	for _, prof := range profs {
		part, err := parseProfile(prof)
		if err != nil {
			return nil, 0, err
		}
		samples = append(samples, part...)
	}
	sec = map[string]float64{}
	var total, copies float64
	for _, s := range samples {
		v := float64(s.value) / 1e9
		sec[layerOf(s.stack)] += v
		total += v
		if len(s.stack) > 0 && (strings.HasPrefix(s.stack[0], "runtime.memmove") || strings.HasPrefix(s.stack[0], "runtime.memclr")) {
			copies += v
		}
	}
	if total > 0 {
		copyShare = copies / total
	}
	return sec, copyShare, nil
}

// allocByLayer returns cumulative allocated bytes per layer since process
// start, from the runtime's sampled allocation profile. Sampled sizes are
// scaled up the way runtime/pprof scales them. Call runtime.GC first: the
// profile is published at the end of a collection.
func allocByLayer() map[string]float64 {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	rate := float64(runtime.MemProfileRate)
	out := map[string]float64{}
	var stack []string
	for i := range recs {
		r := &recs[i]
		if r.AllocObjects == 0 || r.AllocBytes == 0 {
			continue
		}
		stack = stack[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function != "" {
				stack = append(stack, f.Function)
			}
			if !more {
				break
			}
		}
		size := float64(r.AllocBytes)
		if rate > 1 {
			avg := size / float64(r.AllocObjects)
			size /= 1 - math.Exp(-avg/rate)
		}
		out[layerOf(stack)] += size
	}
	return out
}

// profSample is one profile sample: the symbolized stack, leaf first, and
// the last value of the sample (cpu nanoseconds in a CPU profile).
type profSample struct {
	stack []string
	value int64
}

// parseProfile decodes the gzip-compressed profile.proto that runtime/pprof
// writes: just the messages and fields needed to symbolize stacks.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples  []rawSample
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					vals := appendVarints(nil, wire, v, b)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{value: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn per field with the varint
// value (wire type 0) or the bytes (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}

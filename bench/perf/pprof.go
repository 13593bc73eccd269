package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// cpuLayers are the buckets host CPU samples and allocations are
// attributed to: this repo's packages, the harness itself, and (CPU
// only) the Go runtime split into garbage collection and the rest —
// scheduler, coroutine switches, memory allocation.
var cpuLayers = []string{"sim", "nand", "bch", "flashchan", "hostif", "core", "blocklayer", "ccdb",
	"rpcnet", "cluster", "coord", "metrics", "trace", "workload", "bench"}

const (
	bucketGC    = "runtime.gc"
	bucketOther = "runtime.other"
)

// buckets is every attribution target: the layers, then the runtime's
// two.
var buckets = append(append([]string(nil), cpuLayers...), bucketGC, bucketOther)

// layerOfFunc maps a function's full symbol name to a cpuLayers entry,
// or "" when it belongs to none (runtime, standard library).
func layerOfFunc(name string) string {
	// The harness is package main in the benchmark binary and goes by
	// its import path in a test binary.
	if strings.HasPrefix(name, "main.") || strings.HasPrefix(name, "sdf/bench/perf.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(name, "sdf/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return "" // a package no workload here reaches (ssd, fault, ...)
}

// bucketOfStack attributes one stack, leaf first, to the innermost
// frame that belongs to a layer. A stack with no such frame is the
// runtime's own: garbage collection if a collector entry point is on
// it, otherwise "other".
func bucketOfStack(leafFirst []string) string {
	for _, fn := range leafFirst {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	for _, fn := range leafFirst {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"),
			strings.HasPrefix(fn, "runtime.gcDrain"),
			strings.HasPrefix(fn, "runtime.gcAssistAlloc"),
			strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"),
			strings.HasPrefix(fn, "runtime.gcStart"),
			strings.HasPrefix(fn, "runtime.gcMarkTermination"),
			strings.HasPrefix(fn, "runtime.sweepone"):
			return bucketGC
		}
	}
	return bucketOther
}

// cpuShares decodes pprof CPU profiles (gzip-compressed protobuf, as
// runtime/pprof writes them) and returns each bucket's share of the
// CPU time sampled over all of them; the shares sum to 1. The second
// result is the number of samples.
func cpuShares(profiles [][]byte) (map[string]float64, int, error) {
	weight := map[string]float64{}
	var total float64
	count := 0
	for _, gz := range profiles {
		raw, err := gunzip(gz)
		if err != nil {
			return nil, 0, fmt.Errorf("cpu profile: %w", err)
		}
		prof, err := decodeProfile(raw)
		if err != nil {
			return nil, 0, fmt.Errorf("cpu profile: %w", err)
		}
		for _, s := range prof.samples {
			if len(s.values) == 0 {
				continue
			}
			var stack []string
			for _, loc := range s.locations {
				for _, fn := range prof.locFuncs[loc] { // innermost inlined call first
					stack = append(stack, prof.strings[prof.funcName[fn]])
				}
			}
			v := float64(s.values[len(s.values)-1]) // last value: cpu nanoseconds
			weight[bucketOfStack(stack)] += v
			total += v
			count += int(s.values[0])
		}
	}
	if total == 0 {
		return nil, 0, errors.New("cpu profile: no samples")
	}
	for k := range weight {
		weight[k] /= total
	}
	return weight, count, nil
}

func gunzip(gz []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// profile holds the parts of perftools.profiles.Profile that
// attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// decodeProfile reads the Profile message: sample = 2, location = 4,
// function = 5, string_table = 6; everything else is skipped.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, v, data)
				case 2:
					for _, u := range appendVarints(nil, v, data) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line { function_id = 1 }
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message. fn receives the field number
// and, by wire type, either the varint value (data nil) or the
// length-delimited payload (v zero). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(b) < width {
				return errTruncated
			}
			b = b[width:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's content: the packed
// payload when data is non-nil, else the single value v.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := uvarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// allocSnapshot is the allocation count of every call stack since
// process start, as runtime.MemProfile reports it at MemProfileRate 1.
type allocSnapshot map[[32]uintptr]int64

// snapAllocs reads the allocation profile. Two collections first: the
// profile publishes counts only up to the last completed cycle.
func snapAllocs() allocSnapshot {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	recs = recs[:n]
	snap := allocSnapshot{}
	for _, rec := range recs {
		if rec.AllocObjects > 0 {
			snap[rec.Stack0] += rec.AllocObjects
		}
	}
	return snap
}

// allocsByLayer attributes the allocations made between two snapshots
// by the same innermost-frame rule as CPU samples; stacks with no
// layer frame all count as runtime.other.
func allocsByLayer(before, after allocSnapshot) map[string]float64 {
	out := map[string]float64{}
	for stack, n := range after {
		d := n - before[stack]
		if d <= 0 {
			continue
		}
		depth := 0
		for depth < len(stack) && stack[depth] != 0 {
			depth++
		}
		var names []string
		frames := runtime.CallersFrames(stack[:depth])
		for {
			f, more := frames.Next()
			names = append(names, f.Function)
			if !more {
				break
			}
		}
		b := bucketOfStack(names)
		if b == bucketGC {
			b = bucketOther
		}
		out[b] += float64(d)
	}
	return out
}

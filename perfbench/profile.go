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

// This file decodes the pprof profiles runtime/pprof writes (gzipped
// profile.proto) just far enough to attribute samples to the repository's
// layers, so the benchmark needs nothing outside the standard library.

// profile is a decoded pprof profile: each sample's stack as function
// names, leaf first, and its values in sample-type order.
type profile struct {
	types   []string
	samples []sample
}

type sample struct {
	stack  []string
	values []int64
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		typeIdx  []int64
		rawSamp  []struct{ locs, vals []uint64 }
		locFuncs = map[uint64][]uint64{}
		funcName = map[uint64]int64{}
	)
	err = fields(b, func(f int, wt int, v uint64, data []byte) error {
		switch f {
		case 1: // sample_type
			return fields(data, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s struct{ locs, vals []uint64 }
			err := fields(data, func(f, wt int, v uint64, d []byte) error {
				switch f {
				case 1:
					return repeated(wt, v, d, &s.locs)
				case 2:
					return repeated(wt, v, d, &s.vals)
				}
				return nil
			})
			rawSamp = append(rawSamp, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(d, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.types = append(p.types, str(t))
	}
	for _, rs := range rawSamp {
		s := sample{}
		for _, l := range rs.locs {
			// A location's lines run from the innermost inlined call out.
			for _, fn := range locFuncs[l] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		for _, v := range rs.vals {
			s.values = append(s.values, int64(v))
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// fields walks a protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited payload.
func fields(b []byte, fn func(field, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(field, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated varint field, packed or not.
func repeated(wt int, v uint64, data []byte, out *[]uint64) error {
	if wt == 0 {
		*out = append(*out, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*out = append(*out, x)
		data = data[n:]
	}
	return nil
}

// layerOfPackage maps a repository package path to its layer; ok is false
// for packages outside the repository.
func layerOfPackage(pkg string) (string, bool) {
	rest, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok {
		return "", false
	}
	top, _, _ := strings.Cut(rest, "/")
	switch top {
	case "apps", "matrix", "mpi", "core", "distribution", "drsd", "telemetry", "sweep":
		return top, true
	case "cluster", "vclock", "loadmon", "timing", "fault":
		return "cluster", true // the modelled node
	}
	return "other", true // exp and translate: experiment runners and tools, not runtime layers
}

// funcPackage extracts the package path from a symbol name such as
// "repro/internal/matrix.(*Sparse).Append" or "runtime.mallocgc".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may contain paths
	}
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// copyHelpers are runtime routines that implement a caller's copy, clear or
// compare inline; their time belongs to the calling layer.
var copyHelpers = map[string]bool{
	"runtime.memmove": true, "runtime.memclrNoHeapPointers": true, "runtime.memequal": true,
	"runtime.typedmemmove": true, "runtime.typedslicecopy": true, "runtime.memclrHasPointers": true,
}

// gcFrames mark a stack as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.markroot",
	"runtime.gcDrain", "runtime.scanobject", "runtime.sweepone", "runtime.deductSweepCredit",
	"runtime.wbBufFlush", "runtime.GC",
}

// schedFrames mark a stack as goroutine scheduling, parking and waking.
var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark", "runtime.goready",
	"runtime.ready", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.goschedImpl",
	"runtime.notesleep", "runtime.notewakeup", "runtime.futex", "runtime.chansend", "runtime.chanrecv",
	"runtime.selectgo", "runtime.semacquire", "runtime.semrelease", "runtime.lock2", "runtime.unlock2",
	"runtime.mcall", "runtime.usleep", "runtime.osyield",
}

func stackHas(stack []string, prefixes []string) bool {
	for _, f := range stack {
		for _, p := range prefixes {
			if f == p || strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// attributeCPU splits the CPU profile's sampled time by layer. A sample
// belongs to its leaf function's layer; a leaf in the standard library
// (or a runtime copy helper) hands its time to the nearest repository
// caller; other runtime leaves stay in runtime, subdivided into GC and
// scheduling by the frames on the stack. The layers partition the total.
func attributeCPU(p *profile, out *layerSums) {
	vi := len(p.types) - 1 // cpu nanoseconds
	for i, t := range p.types {
		if t == "cpu" {
			vi = i
		}
	}
	for _, s := range p.samples {
		if vi >= len(s.values) || len(s.stack) == 0 {
			continue
		}
		secs := float64(s.values[vi]) / 1e9
		out.add("profile.cpu_s", secs)
		leaf := s.stack[0]
		if pkg := funcPackage(leaf); isRuntime(pkg) && !copyHelpers[leaf] {
			out.add("runtime.cpu_s", secs)
			switch {
			case stackHas(s.stack, gcFrames):
				out.add("runtime.gc_cpu_s", secs)
			case stackHas(s.stack, schedFrames):
				out.add("runtime.sched_cpu_s", secs)
			}
			continue
		}
		out.add(callerLayer(s.stack)+".cpu_s", secs)
	}
}

// attributeAlloc splits the allocation profile's bytes by the layer of the
// nearest repository frame that allocated them.
func attributeAlloc(p *profile, out *layerSums) {
	vi := -1
	for i, t := range p.types {
		if t == "alloc_space" {
			vi = i
		}
	}
	if vi < 0 {
		return
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		mib := float64(s.values[vi]) / (1 << 20)
		out.add("profile.alloc_mb", mib)
		out.add(callerLayer(s.stack)+".alloc_mb", mib)
	}
}

// callerLayer is the layer of the innermost repository frame, or "other"
// when the stack has none (the benchmark itself, process start-up).
func callerLayer(stack []string) string {
	for _, f := range stack {
		if l, ok := layerOfPackage(funcPackage(f)); ok {
			return l
		}
	}
	return "other"
}

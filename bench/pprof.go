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

// A standard-library-only reader for the CPU profiles runtime/pprof writes:
// a gzipped protocol buffer in the profile.proto schema. Only what the layer
// fold needs is decoded — samples, locations with their inlined lines,
// functions and the string table.

// profile is a decoded CPU profile.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcs   map[uint64]string   // function id -> function name
}

// profSample is one stack sample. For a CPU profile values are
// [sample count, CPU nanoseconds].
type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

var errTruncated = errors.New("pprof: truncated message")

// profile.proto field numbers used here.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileString   = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4

	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

// wireField is one decoded protobuf field: v holds varint and fixed-width
// values, b the payload of a length-delimited field.
type wireField struct {
	num int
	typ int
	v   uint64
	b   []byte
}

// eachField calls fn for every top-level field of the message in buf.
func eachField(buf []byte, fn func(f wireField) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		f := wireField{num: int(key >> 3), typ: int(key & 7)}
		switch f.typ {
		case 0: // varint
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			f.v, buf = v, buf[n:]
		case 1: // 64-bit
			if len(buf) < 8 {
				return errTruncated
			}
			f.v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errTruncated
			}
			f.b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5: // 32-bit
			if len(buf) < 4 {
				return errTruncated
			}
			f.v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d in field %d", f.typ, f.num)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which an encoder may
// write packed (one length-delimited run) or as one varint per key.
func appendVarints(dst []uint64, f wireField) ([]uint64, error) {
	switch f.typ {
	case 0:
		return append(dst, f.v), nil
	case 2:
		for b := f.b; len(b) > 0; {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			dst, b = append(dst, v), b[n:]
		}
		return dst, nil
	}
	return nil, fmt.Errorf("pprof: field %d: wire type %d is not an integer", f.num, f.typ)
}

// parseProfile decodes a (possibly gzipped) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	funcName := map[uint64]uint64{} // function id -> string table index
	var strs []string
	err := eachField(data, func(f wireField) error {
		if f.typ != 2 {
			return nil // scalar profile fields (period, timestamps) are unused
		}
		switch f.num {
		case fieldProfileSample:
			s, err := parseSample(f.b)
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			id, fns, err := parseLocation(f.b)
			p.locs[id] = fns
			return err
		case fieldProfileFunction:
			id, name, err := parseFunction(f.b)
			funcName[id] = name
			return err
		case fieldProfileString:
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcName {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("pprof: function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcs[id] = strs[idx]
	}
	return p, nil
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	var vals []uint64
	err := eachField(b, func(f wireField) error {
		var err error
		switch f.num {
		case fieldSampleLocation:
			s.locs, err = appendVarints(s.locs, f)
		case fieldSampleValue:
			vals, err = appendVarints(vals, f)
		}
		return err
	})
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	return s, err
}

func parseLocation(b []byte) (id uint64, fns []uint64, err error) {
	err = eachField(b, func(f wireField) error {
		switch {
		case f.num == fieldLocationID && f.typ == 0:
			id = f.v
		case f.num == fieldLocationLine && f.typ == 2:
			return eachField(f.b, func(lf wireField) error {
				if lf.num == fieldLineFunction && lf.typ == 0 {
					fns = append(fns, lf.v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

func parseFunction(b []byte) (id, name uint64, err error) {
	err = eachField(b, func(f wireField) error {
		if f.typ != 0 {
			return nil
		}
		switch f.num {
		case fieldFunctionID:
			id = f.v
		case fieldFunctionName:
			name = f.v
		}
		return nil
	})
	return id, name, err
}

// stack returns the function names of sample s, innermost frame first
// (inlined callees before the function they were inlined into).
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locs[loc] {
			out = append(out, p.funcs[fn])
		}
	}
	return out
}

// layerCost is the profile share of one layer.
type layerCost struct {
	Samples int64 `json:"samples"`
	CPUNS   int64 `json:"cpu_ns"`
}

// foldLayers charges every sample of p to one layer (see foldStack).
func foldLayers(p *profile) map[string]layerCost {
	out := map[string]layerCost{}
	for _, s := range p.samples {
		if len(s.values) < 2 {
			continue
		}
		l := foldStack(p.stack(s))
		c := out[l]
		c.Samples += s.values[0]
		c.CPUNS += s.values[1]
		out[l] = c
	}
	return out
}

// repoLayers are the repository packages profiled as layers of their own.
// Every other package under optimus/internal/ (pagetable, guest, exp, obs,
// ...) and every stack with no repository frame fold into "other"; runtime
// leaves fold into the runtime.* classes of runtimeClass.
var repoLayers = []string{"sim", "hwmon", "ccip", "iommu", "mem", "accel", "algo", "hv"}

// runtimeClasses are the layers runtime leaves fold into.
var runtimeClasses = []string{"runtime.alloc", "runtime.gc", "runtime.copy", "runtime.other"}

const repoPrefix = "optimus/internal/"

// foldStack names the layer a stack (innermost frame first) is charged to.
// A sample whose leaf is in the Go runtime is classified by the runtime
// frames above it; any other sample goes to the innermost frame in a
// repository package, with the algo/* kernels folded into "algo".
func foldStack(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if isRuntime(stack[0]) {
		return runtimeClass(stack)
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if !strings.HasPrefix(pkg, repoPrefix) {
			continue
		}
		layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, repoPrefix), "/")
		for _, l := range repoLayers {
			if l == layer {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// runtimeClass splits runtime time by the runtime frames between the leaf
// and the calling code: collector work, allocation (including the memclr of
// fresh spans and the copy of a growing slice), plain copies, and the rest.
func runtimeClass(stack []string) string {
	rt := stack
	for i, fn := range stack {
		if !isRuntime(fn) {
			rt = stack[:i]
			break
		}
	}
	has := func(names ...string) bool {
		for _, fn := range rt {
			for _, n := range names {
				if fn == n {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has("runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.gcAssistAlloc", "runtime._GC"):
		return "runtime.gc"
	case has("runtime.mallocgc", "runtime.growslice", "runtime.makeslice", "runtime.newobject"):
		return "runtime.alloc"
	case has("runtime.duffcopy", "runtime.memmove", "runtime.typedmemmove", "runtime.duffzero"):
		return "runtime.copy"
	}
	return "runtime.other"
}

func isRuntime(fn string) bool {
	pkg := funcPackage(fn)
	return pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/")
}

// funcPackage returns the import path of a profile function name such as
// "optimus/internal/sim.(*Kernel).heapPop" or
// "optimus/internal/pagetable.(*Table[go.shape.uint64,...]).Lookup": the
// path runs to the first '.' after the last '/' that precedes any receiver
// or type-parameter bracket.
func funcPackage(fn string) string {
	end := len(fn)
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		end = i
	}
	slash := strings.LastIndex(fn[:end], "/")
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

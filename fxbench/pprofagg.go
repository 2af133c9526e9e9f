package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file aggregates a CPU profile (the gzipped profile.proto that
// runtime/pprof and /debug/pprof/profile write) by fxnet package. The
// standard library has no profile parser, so a minimal protobuf decoder
// reads the four messages the aggregation needs: samples, locations,
// functions and the string table.

// profile is the decoded subset of a pprof Profile.
type profile struct {
	valueIndex int // index of the cpu-nanoseconds value
	samples    []profSample
	locations  map[uint64][]uint64 // location id → function ids, innermost first
	functions  map[uint64]int64    // function id → name string index
	strings    []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field reads one tag and returns its number, wire type, and either the
// varint value or the length-delimited payload.
func (p *pbuf) field() (num int, wt int, v uint64, data []byte, err error) {
	tag, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(tag>>3), int(tag&7)
	switch wt {
	case wireVarint:
		v, err = p.varint()
	case wireI64:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[8:]
	case wireI32:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[4:]
	case wireBytes:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wt)
	}
	return num, wt, v, data, err
}

// varints decodes a repeated varint field given either packed or not.
func varints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == wireVarint {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzipped (or raw) profile.proto.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	prof := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var sampleTypes []int64 // type string index per value
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, wt, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			typ, err := firstVarint(data, 1)
			if err != nil {
				return nil, err
			}
			sampleTypes = append(sampleTypes, int64(typ))
		case 2: // sample
			s, err := parseSample(data)
			if err != nil {
				return nil, err
			}
			prof.samples = append(prof.samples, s)
		case 4: // location
			id, fns, err := parseLocation(data)
			if err != nil {
				return nil, err
			}
			prof.locations[id] = fns
		case 5: // function
			id, name, err := parseFunction(data)
			if err != nil {
				return nil, err
			}
			prof.functions[id] = name
		case 6: // string_table
			if wt != wireBytes {
				return nil, errors.New("pprof: bad string table entry")
			}
			prof.strings = append(prof.strings, string(data))
		}
	}
	prof.valueIndex = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(prof.strings) && prof.strings[t] == "cpu" {
			prof.valueIndex = i
		}
	}
	return prof, nil
}

// firstVarint returns the varint field num of a message.
func firstVarint(msg []byte, num int) (uint64, error) {
	p := pbuf{msg}
	for len(p.b) > 0 {
		n, wt, v, _, err := p.field()
		if err != nil {
			return 0, err
		}
		if n == num && wt == wireVarint {
			return v, nil
		}
	}
	return 0, nil
}

func parseSample(msg []byte) (profSample, error) {
	var s profSample
	var vals []uint64
	p := pbuf{msg}
	for len(p.b) > 0 {
		n, wt, v, data, err := p.field()
		if err != nil {
			return s, err
		}
		switch n {
		case 1:
			if s.locs, err = varints(s.locs, wt, v, data); err != nil {
				return s, err
			}
		case 2:
			if vals, err = varints(vals, wt, v, data); err != nil {
				return s, err
			}
		}
	}
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	return s, nil
}

func parseLocation(msg []byte) (id uint64, fns []uint64, err error) {
	p := pbuf{msg}
	for len(p.b) > 0 {
		n, _, v, data, err := p.field()
		if err != nil {
			return 0, nil, err
		}
		switch n {
		case 1:
			id = v
		case 4: // line: function_id is field 1
			fn, err := firstVarint(data, 1)
			if err != nil {
				return 0, nil, err
			}
			fns = append(fns, fn)
		}
	}
	return id, fns, nil
}

func parseFunction(msg []byte) (id uint64, name int64, err error) {
	p := pbuf{msg}
	for len(p.b) > 0 {
		n, _, v, _, err := p.field()
		if err != nil {
			return 0, 0, err
		}
		switch n {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	return id, name, nil
}

// stack returns a sample's function names, leaf first.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if idx := p.functions[fn]; idx >= 0 && int(idx) < len(p.strings) {
				out = append(out, p.strings[idx])
			}
		}
	}
	return out
}

// CPUByLayer accumulates profile samples into per-layer CPU time.
type CPUByLayer struct {
	ns    map[string]int64
	total int64
}

// AddProfile decodes one profile and adds its samples.
func (c *CPUByLayer) AddProfile(raw []byte) error {
	prof, err := parseProfile(raw)
	if err != nil {
		return err
	}
	if c.ns == nil {
		c.ns = map[string]int64{}
	}
	for _, s := range prof.samples {
		if prof.valueIndex < 0 || prof.valueIndex >= len(s.values) {
			continue
		}
		v := s.values[prof.valueIndex]
		c.ns[classify(prof.stack(s))] += v
		c.total += v
	}
	return nil
}

// Share is a layer's fraction of all sampled CPU time (0 when nothing
// was sampled).
func (c *CPUByLayer) Share(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.ns[layer]) / float64(c.total)
}

// Total is the sampled CPU time, ns.
func (c *CPUByLayer) Total() int64 { return c.total }

// pkgOf extracts the package path of a Go symbol name:
// "fxnet/internal/sim.(*Kernel).Run" → "fxnet/internal/sim".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// fxnetLayer maps a package path to an fxnet layer name: internal
// packages by their last element, the benchmark's own main package to
// "bench".
func fxnetLayer(pkg string) (string, bool) {
	switch {
	case strings.HasPrefix(pkg, "fxnet/internal/"):
		return strings.TrimPrefix(pkg, "fxnet/internal/"), true
	case pkg == "fxnet":
		return "fxnet", true
	case pkg == "main":
		return "bench", true
	}
	return "", false
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// Runtime functions that mark a sample as garbage collection, memory
// allocation or goroutine scheduling, wherever they sit on the stack.
var (
	gcFuncs = map[string]bool{
		"runtime.markroot": true, "runtime.scanobject": true, "runtime.scanblock": true,
		"runtime.scanstack": true, "runtime.greyobject": true, "runtime.bgsweep": true,
		"runtime.sweepone": true, "runtime.bgscavenge": true, "runtime.wbBufFlush": true,
		"runtime.wbBufFlush1": true, "runtime._GC": true, "runtime.scanframeworker": true,
		"runtime.markBits.setMarked": true, "runtime.findObject": true,
	}
	mallocFuncs = map[string]bool{
		"runtime.newobject": true, "runtime.makeslice": true, "runtime.growslice": true,
		"runtime.newarray": true, "runtime.makemap": true, "runtime.makemap_small": true,
		"runtime.rawstring": true, "runtime.rawbyteslice": true, "runtime.rawruneslice": true,
		"runtime.makechan": true, "runtime.hashGrow": true, "runtime.slicebytetostring": true,
		"runtime.concatstrings": true,
	}
	schedFuncs = map[string]bool{
		"runtime.schedule": true, "runtime.findRunnable": true, "runtime.findrunnable": true,
		"runtime.park_m": true, "runtime.mcall": true, "runtime.gopark": true,
		"runtime.goready": true, "runtime.ready": true, "runtime.stealWork": true,
		"runtime.runqsteal": true, "runtime.netpoll": true, "runtime.gosched_m": true,
		"runtime.goschedImpl": true, "runtime.mstart": true, "runtime.mstart1": true,
		"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.wakep": true,
		"runtime.startm": true, "runtime.stopm": true, "runtime.handoffp": true,
		"runtime.sysmon": true, "runtime.exitsyscall": true, "runtime.entersyscall": true,
		"runtime.goexit0": true, "runtime.newproc": true, "runtime.chansend": true,
		"runtime.chanrecv": true, "runtime.selectgo": true, "runtime.semasleep": true,
		"runtime.semawakeup": true, "runtime.lock2": true, "runtime.unlock2": true,
		"runtime.usleep": true, "runtime.osyield": true, "runtime.futexsleep": true,
		"runtime.futexwakeup": true, "runtime.runqgrab": true,
	}
)

// runtimeBucket classifies a stack by the runtime work it contains:
// collection outranks allocation (an allocation that assists the
// collector is collector time), and allocation outranks scheduling.
func runtimeBucket(stack []string) string {
	var malloc, sched bool
	for _, fn := range stack {
		if !isRuntime(pkgOf(fn)) {
			continue
		}
		name := strings.TrimPrefix(fn, "runtime.")
		switch {
		case gcFuncs[fn] || strings.HasPrefix(name, "gc") || strings.HasPrefix(name, "(*gc") ||
			strings.HasPrefix(name, "(*mspan).sweep") || strings.HasPrefix(name, "(*sweepLocked)"):
			return "runtime.gc"
		case mallocFuncs[fn] || strings.HasPrefix(name, "malloc") || strings.HasPrefix(name, "(*mcache)") ||
			strings.HasPrefix(name, "(*mcentral)") || strings.HasPrefix(name, "(*mheap)"):
			malloc = true
		case schedFuncs[fn]:
			sched = true
		}
	}
	switch {
	case malloc:
		return "runtime.malloc"
	case sched:
		return "runtime.sched"
	}
	return ""
}

// classify attributes one sample to a layer. A leaf inside the runtime
// belongs to runtime.gc, runtime.malloc or runtime.sched when the stack
// shows that work; any other runtime or standard-library leaf (memmove,
// a syscall, sha256) is charged to the nearest fxnet caller. Stacks with
// no fxnet frame fall into "runtime.other" or "stdlib".
func classify(stack []string) string {
	if len(stack) > 0 && isRuntime(pkgOf(stack[0])) {
		if b := runtimeBucket(stack); b != "" {
			return b
		}
	}
	for _, fn := range stack {
		if layer, ok := fxnetLayer(pkgOf(fn)); ok {
			return layer
		}
	}
	if len(stack) > 0 && isRuntime(pkgOf(stack[0])) {
		return "runtime.other"
	}
	return "stdlib"
}

package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pbw is a minimal protobuf writer for building canned profiles.
type pbw struct{ bytes.Buffer }

func (w *pbw) uvarint(v uint64) {
	for v >= 0x80 {
		w.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.WriteByte(byte(v))
}

func (w *pbw) varintField(num int, v uint64) {
	w.uvarint(uint64(num)<<3 | wireVarint)
	w.uvarint(v)
}

func (w *pbw) bytesField(num int, b []byte) {
	w.uvarint(uint64(num)<<3 | wireBytes)
	w.uvarint(uint64(len(b)))
	w.Write(b)
}

func (w *pbw) packed(num int, vs []uint64) {
	var inner pbw
	for _, v := range vs {
		inner.uvarint(v)
	}
	w.bytesField(num, inner.Bytes())
}

// cannedSample is one stack (leaf first; a slice of inlined-together
// frames per location) with its cpu nanoseconds.
type cannedSample struct {
	locs [][]string
	ns   int64
}

// cannedProfile encodes samples as a gzipped CPU profile with the
// [samples/count, cpu/nanoseconds] value layout runtime/pprof writes.
func cannedProfile(t *testing.T, samples []cannedSample) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var out pbw
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbw
		m.varintField(1, str(vt[0]))
		m.varintField(2, str(vt[1]))
		out.bytesField(1, m.Bytes())
	}
	funcIDs := map[string]uint64{}
	var nextLoc uint64
	for _, s := range samples {
		var locIDs []uint64
		for _, frames := range s.locs {
			nextLoc++
			var loc pbw
			loc.varintField(1, nextLoc)
			for _, fn := range frames {
				id, ok := funcIDs[fn]
				if !ok {
					id = uint64(len(funcIDs) + 1)
					funcIDs[fn] = id
					var f pbw
					f.varintField(1, id)
					f.varintField(2, str(fn))
					out.bytesField(5, f.Bytes())
				}
				var line pbw
				line.varintField(1, id)
				line.varintField(2, 7)
				loc.bytesField(4, line.Bytes())
			}
			out.bytesField(4, loc.Bytes())
			locIDs = append(locIDs, nextLoc)
		}
		var sm pbw
		sm.packed(1, locIDs)
		sm.packed(2, []uint64{uint64(s.ns / 10_000_000), uint64(s.ns)})
		out.bytesField(2, sm.Bytes())
	}
	for _, s := range strs {
		out.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(out.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func frames(fns ...string) [][]string {
	out := make([][]string, len(fns))
	for i, fn := range fns {
		out[i] = []string{fn}
	}
	return out
}

func TestCPUByLayerCannedProfile(t *testing.T) {
	const ms = int64(1_000_000)
	raw := cannedProfile(t, []cannedSample{
		// Plain fxnet leaves.
		{frames("fxnet/internal/sim.(*Kernel).Run", "main.main"), 40 * ms},
		{frames("fxnet/internal/kernels.FFT2D", "fxnet/internal/fx.(*Worker).Compute"), 30 * ms},
		// A runtime helper is charged to its fxnet caller.
		{frames("runtime.memmove", "fxnet/internal/trace.(*Chunk).append", "fxnet/internal/sim.(*Kernel).Run"), 10 * ms},
		// A stdlib leaf too.
		{frames("crypto/sha256.block", "crypto/sha256.(*digest).Write", "fxnet/internal/trace.(*Trace).WriteBinary"), 5 * ms},
		// Allocation, including a memclr under mallocgc.
		{frames("runtime.mallocgc", "runtime.newobject", "fxnet/internal/netstack.(*Host).send"), 6 * ms},
		{frames("runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "fxnet/internal/pvm.pack"), 2 * ms},
		// An allocation that assists the collector is collector time.
		{frames("runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "fxnet/internal/pvm.pack"), 3 * ms},
		{frames("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), 4 * ms},
		// Scheduler work, including a context switch inside sim.
		{frames("runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"), 3 * ms},
		{frames("runtime.gopark", "runtime.chanrecv", "fxnet/internal/sim.(*Proc).yield"), 2 * ms},
		// Inlined frames share one location: the innermost decides.
		{[][]string{{"fxnet/internal/ethernet.(*Segment).arbitrate", "fxnet/internal/sim.(*Kernel).step"}}, 4 * ms},
		// Stacks without any fxnet frame.
		{frames("runtime.memmove", "runtime.goexit"), 1 * ms},
		{frames("net/http.(*conn).readRequest", "net/http.(*conn).serve"), 1 * ms},
	})
	var agg CPUByLayer
	if err := agg.AddProfile(raw); err != nil {
		t.Fatal(err)
	}
	if agg.Total() != 111*ms {
		t.Fatalf("total = %d, want %d", agg.Total(), 111*ms)
	}
	want := map[string]int64{
		"sim": 40, "kernels": 30, "trace": 15, "runtime.malloc": 8, "runtime.gc": 7,
		"runtime.sched": 5, "ethernet": 4, "runtime.other": 1, "stdlib": 1,
		"fx": 0, "netstack": 0, "pvm": 0,
	}
	for layer, w := range want {
		got := agg.Share(layer)
		if math.Abs(got-float64(w)/111) > 1e-12 {
			t.Errorf("%s share = %.4f, want %d/111", layer, got, w)
		}
	}

	// A second profile accumulates.
	if err := agg.AddProfile(cannedProfile(t, []cannedSample{{frames("fxnet/internal/sim.x"), 111 * ms}})); err != nil {
		t.Fatal(err)
	}
	if got := agg.Share("sim"); math.Abs(got-151.0/222) > 1e-12 {
		t.Errorf("sim share after second profile = %.4f", got)
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	raw := cannedProfile(t, []cannedSample{{frames("fxnet/internal/sim.x"), 10}})
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if _, err := plain.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(plain.Bytes()[:plain.Len()-3]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

func TestPkgOf(t *testing.T) {
	for in, want := range map[string]string{
		"fxnet/internal/sim.(*Kernel).Run":  "fxnet/internal/sim",
		"runtime.mallocgc":                  "runtime",
		"main.main":                         "main",
		"net/http.(*conn).serve":            "net/http",
		"fxnet/internal/dsp.fft[...].apply": "fxnet/internal/dsp",
		"internal/runtime/syscall.Syscall6": "internal/runtime/syscall",
	} {
		if got := pkgOf(in); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", in, got, want)
		}
	}
}

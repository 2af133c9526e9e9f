package core

import (
	"runtime"
	"testing"

	"fxnet/internal/kernels"
)

// TestResultsDoNotPinTheSimulation: a kept Result carries counters, not
// live handles. Its workers used to keep their PVM tasks, which reach
// the machine, every host and connection with its buffers, and the
// kernel, so each result a service held pinned its whole simulation
// (about 430 KB for this run, against a trace of a few KB).
func TestResultsDoNotPinTheSimulation(t *testing.T) {
	cfg := RunConfig{Program: "2dfft", Seed: 5, P: 4, Params: kernels.Params{N: 64, Iters: 1}}
	run := func() *Result {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Workers) != 4 || res.Team.Generation() != 0 {
			t.Fatalf("result lost its counters: %d workers, generation %d", len(res.Workers), res.Team.Generation())
		}
		return res
	}
	liveHeap := func() int64 {
		// Two collections: the first moves sync.Pool contents (pooled
		// FFT scratch) to the victim cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	run() // warm-up: one-time runtime and FFT plan caches fill here

	const n, bound = 8, 32 << 10
	held := make([]*Result, n)
	before := liveHeap()
	for i := range held {
		held[i] = run()
	}
	perResult := (liveHeap() - before) / n
	runtime.KeepAlive(held)
	if perResult > bound {
		t.Errorf("each held result keeps %d B of live heap, want < %d", perResult, bound)
	}
}

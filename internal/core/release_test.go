package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
	"time"

	"fxnet/internal/kernels"
)

// TestRunsReleaseTheirGoroutines: a run leaves nothing behind. PVM
// listeners parked in Accept and readers of connections that never close
// used to outlive every run (and pin its whole simulation state); the
// builder now unwinds them once the trace is sealed. After repeated
// shared-segment, streaming and two-segment parallel runs the goroutine
// count returns to its baseline, and every run's trace digest matches
// the first run of its kind — the release never touches a result.
func TestRunsReleaseTheirGoroutines(t *testing.T) {
	topo, err := ParseTopology("lan0:0-1,lan1:2-3")
	if err != nil {
		t.Fatal(err)
	}
	base := RunConfig{Program: "sor", Seed: 3, P: 4, Params: kernels.Params{N: 16, Iters: 2}}
	bridged := base
	bridged.Topology = topo
	kinds := []struct {
		name string
		run  func() string
	}{
		{"shared", func() string { return topoDigest(t, base, PDESSerial) }},
		{"stream", func() string {
			res, rep, err := RunStream(base)
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil || res.Trace.Len() != 0 {
				t.Fatal("stream run kept packets or lost its report")
			}
			h := sha256.New()
			if err := res.Trace.WriteBinary(h); err != nil {
				t.Fatal(err)
			}
			fmt.Fprint(h, rep.AggSeries, rep.ConnSeries)
			return hex.EncodeToString(h.Sum(nil))
		}},
		{"bridged", func() string { return topoDigest(t, bridged, PDESParallel) }},
	}
	first := make([]string, len(kinds))
	for i, k := range kinds {
		first[i] = k.run() // warm-up: one-time runtime goroutines start here
	}
	baseline := runtime.NumGoroutine()
	const rounds, slack = 5, 2
	for r := 0; r < rounds; r++ {
		for i, k := range kinds {
			if got := k.run(); got != first[i] {
				t.Fatalf("%s round %d: digest %s, first run %s", k.name, r, got, first[i])
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d rounds of runs, baseline %d: runs leak parked processes",
				n, rounds, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

package main

import (
	"runtime"
	"testing"

	"fxnet"
)

// raceEnabled is set under the race detector (see race_test.go).
var raceEnabled bool

// TestQuickRunAllocsPerPacket is the end-to-end allocation ceiling: the
// six -quick runs allocate at most one object per captured packet,
// counting everything from the kernels' messages to the trace chunks.
// The per-layer ceilings in netstack and pvm (0 per segment and ACK, 1
// per message) are what add up to it.
func TestQuickRunAllocsPerPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if testing.Short() {
		t.Skip("runs every -quick program")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	packets := 0
	for _, name := range fxnet.Programs() {
		res, err := fxnet.Run(reproConfig(name, reproOptions{Quick: true, Seed: 42}))
		if err != nil {
			t.Fatal(err)
		}
		packets += res.Trace.Len()
	}
	runtime.ReadMemStats(&after)
	perPacket := float64(after.Mallocs-before.Mallocs) / float64(packets)
	t.Logf("%d allocations for %d packets: %.3f per packet", after.Mallocs-before.Mallocs, packets, perPacket)
	if perPacket > 1.0 {
		t.Errorf("the -quick runs allocate %.3f times per captured packet, want at most 1", perPacket)
	}
}

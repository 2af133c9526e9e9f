package netstack

import (
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

// raceEnabled is set under the race detector (see race_test.go).
var raceEnabled bool

// TestEstablishedSegmentAllocs: on an established connection whose
// buffers have reached their working size, one data segment and its ACK
// allocate nothing. Write copies into a reused segment buffer, frames
// travel by value, the receive buffer compacts in place, and ReadFull
// copies into caller memory.
func TestEstablishedSegmentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	k := sim.New(1)
	seg := ethernet.NewSegment(k, 0)
	a := NewHost(k, seg.Attach("a"), "a", DefaultConfig())
	b := NewHost(k, seg.Attach("b"), "b", DefaultConfig())
	const size = 100
	l := b.Listen(80)
	k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		dst := make([]byte, size)
		for c.ReadFull(p, dst) == nil {
		}
	})
	k.Go("client", func(p *sim.Proc) {
		c := a.Connect(p, 1, 80)
		src := make([]byte, size)
		for {
			c.Write(p, src)
			p.Sleep(sim.Second)
		}
	})
	defer k.Release()
	// One step: a write, its segment, and the delayed ACK 200 ms later.
	step := func() { k.RunUntil(k.Now().Add(sim.Second)) }
	for i := 0; i < 10; i++ {
		step() // handshake; queues and buffers grow to size
	}
	frames := seg.Stats().Frames
	const steps = 100
	if allocs := testing.AllocsPerRun(steps, step); allocs != 0 {
		t.Errorf("one data segment plus its ACK allocates %v, want 0", allocs)
	}
	// AllocsPerRun makes one extra warm-up call.
	if got := seg.Stats().Frames - frames; got != 2*(steps+1) {
		t.Fatalf("%d frames over %d steps, want a data segment and an ACK each", got, steps+1)
	}
}

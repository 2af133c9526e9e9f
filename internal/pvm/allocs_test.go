package pvm

import (
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/netstack"
	"fxnet/internal/sim"
)

// raceEnabled is set under the race detector (see race_test.go).
var raceEnabled bool

// TestMessageRoundTripAllocs: once connections are up, one message from
// Send to Recv allocates exactly once — the received body. Assembly uses
// the task's scratch buffer, the socket copies, the header is read into
// a fixed array and the fragments straight into the body, and the
// mailbox holds messages by value.
func TestMessageRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	k := sim.New(1)
	seg := ethernet.NewSegment(k, 0)
	hosts := []*netstack.Host{
		netstack.NewHost(k, seg.Attach("a"), "a", netstack.DefaultConfig()),
		netstack.NewHost(k, seg.Attach("b"), "b", netstack.DefaultConfig()),
	}
	m := NewMachine(k, hosts, Config{})
	received := 0
	m.Spawn("sender", 0, func(task *Task) {
		body := make([]byte, 16)
		for {
			task.Send(1, 7, body)
			task.Sleep(sim.Second)
		}
	})
	m.Spawn("receiver", 1, func(task *Task) {
		for {
			if body := task.RecvBody(0, 7); len(body) != 16 {
				t.Errorf("received a %d-byte body, want 16", len(body))
			}
			received++
		}
	})
	defer k.Release()
	step := func() { k.RunUntil(k.Now().Add(sim.Second)) }
	for i := 0; i < 10; i++ {
		step() // connection setup; buffers grow to size
	}
	before := received
	const steps = 100
	if allocs := testing.AllocsPerRun(steps, step); allocs != 1 {
		t.Errorf("one message round trip allocates %v, want exactly 1 (the received body)", allocs)
	}
	// AllocsPerRun makes one extra warm-up call.
	if got := received - before; got != steps+1 {
		t.Fatalf("%d messages over %d steps, want one each", got, steps+1)
	}
}

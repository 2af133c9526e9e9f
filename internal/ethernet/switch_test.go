package ethernet

import (
	"testing"

	"fxnet/internal/sim"
)

func newTestSwitch(t *testing.T, n int) (*sim.Kernel, *Switch, []*SwitchPort) {
	t.Helper()
	k := sim.New(1)
	sw := NewSwitch(k, 0, 10*sim.Microsecond)
	ports := make([]*SwitchPort, n)
	for i := range ports {
		ports[i] = sw.Attach(string(rune('A' + i)))
	}
	return k, sw, ports
}

func TestSwitchUnicastDelivery(t *testing.T) {
	k, _, ports := newTestSwitch(t, 3)
	var got [3]int
	for i, p := range ports {
		i := i
		p.OnReceive(func(f *Frame) { got[i]++ })
	}
	ports[0].Send(dataFrame(1, 500))
	k.Run()
	if got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Errorf("deliveries = %v", got)
	}
}

func TestSwitchBroadcast(t *testing.T) {
	k, _, ports := newTestSwitch(t, 4)
	var got [4]int
	for i, p := range ports {
		i := i
		p.OnReceive(func(f *Frame) { got[i]++ })
	}
	ports[2].Send(Frame{Dst: Broadcast, NetLen: 100})
	k.Run()
	for i, n := range got {
		want := 1
		if i == 2 {
			want = 0
		}
		if n != want {
			t.Errorf("port %d got %d", i, n)
		}
	}
}

func TestSwitchLatencyAndSerialization(t *testing.T) {
	k, _, ports := newTestSwitch(t, 2)
	var at sim.Time
	ports[1].OnReceive(func(f *Frame) { at = k.Now() })
	f := dataFrame(1, 1000)
	ports[0].Send(f)
	k.Run()
	// ingress serialization + IFG + latency + egress serialization + IFG.
	per := sim.DurationOf(float64(f.WireBytes()*8) / 10e6)
	want := sim.Time(0).Add(per + InterFrameGap + 10*sim.Microsecond + per + InterFrameGap)
	if at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

func TestSwitchFullDuplexParallelism(t *testing.T) {
	// Two simultaneous opposite-direction transfers on a switch do not
	// contend, unlike on the shared segment: both complete in roughly the
	// one-way time.
	run := func(switched bool) sim.Time {
		k := sim.New(1)
		const frames = 50
		received := 0
		if switched {
			sw := NewSwitch(k, 0, 0)
			a, b := sw.Attach("a"), sw.Attach("b")
			a.OnReceive(func(f *Frame) { received++ })
			b.OnReceive(func(f *Frame) { received++ })
			for i := 0; i < frames; i++ {
				a.Send(dataFrame(1, 1400))
				b.Send(dataFrame(0, 1400))
			}
		} else {
			seg := NewSegment(k, 0)
			a, b := seg.Attach("a"), seg.Attach("b")
			a.OnReceive(func(f *Frame) { received++ })
			b.OnReceive(func(f *Frame) { received++ })
			for i := 0; i < frames; i++ {
				a.Send(dataFrame(1, 1400))
				b.Send(dataFrame(0, 1400))
			}
		}
		end := k.Run()
		if received != 2*frames {
			t.Fatalf("switched=%v: received %d", switched, received)
		}
		return end
	}
	shared := run(false)
	switched := run(true)
	// The shared medium serializes 100 frames; the switch pipelines the
	// two directions, finishing in a bit over half the time.
	if float64(switched) > 0.7*float64(shared) {
		t.Errorf("switch %v not ≪ shared %v", switched, shared)
	}
}

func TestSwitchOutputQueueContention(t *testing.T) {
	// Three senders to one receiver: the egress link serializes, so the
	// total time matches one link's worth of frames, and MaxQueue grows.
	k, sw, ports := newTestSwitch(t, 4)
	received := 0
	ports[3].OnReceive(func(f *Frame) { received++ })
	const per = 30
	for i := 0; i < per; i++ {
		for s := 0; s < 3; s++ {
			ports[s].Send(dataFrame(3, 1400))
		}
	}
	k.Run()
	if received != 3*per {
		t.Fatalf("received %d", received)
	}
	if sw.MaxQueue < 2 {
		t.Errorf("MaxQueue = %d, expected output queuing", sw.MaxQueue)
	}
	if sw.Delivered != 3*per {
		t.Errorf("Delivered = %d", sw.Delivered)
	}
}

func TestSwitchTap(t *testing.T) {
	k, sw, ports := newTestSwitch(t, 2)
	ports[1].OnReceive(func(f *Frame) {})
	var caps []Capture
	sw.Tap(func(c Capture) { caps = append(caps, c) })
	ports[0].Send(Frame{Dst: 1, Proto: ProtoUDP, NetLen: 64})
	k.Run()
	if len(caps) != 1 || caps[0].Size != 82 || caps[0].Proto != ProtoUDP {
		t.Errorf("caps = %+v", caps)
	}
}

func TestSwitchSelfSendPanics(t *testing.T) {
	_, _, ports := newTestSwitch(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("no panic on self-send")
		}
	}()
	ports[0].Send(dataFrame(0, 100))
}

func TestSwitchPreservesPerSourceOrder(t *testing.T) {
	k, _, ports := newTestSwitch(t, 2)
	var sizes []int
	ports[1].OnReceive(func(f *Frame) { sizes = append(sizes, f.NetLen) })
	for i := 1; i <= 20; i++ {
		ports[0].Send(dataFrame(1, 100+i))
	}
	k.Run()
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("reordering: %v", sizes)
		}
	}
}

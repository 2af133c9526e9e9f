package ethernet

import (
	"testing"

	"fxnet/internal/sim"
)

// benchBurst is how many frames the benchmarks queue before draining
// the kernel: enough to keep the medium saturated, few enough that the
// queues reach their steady-state size and stop growing.
const benchBurst = 64

// BenchmarkSharedSaturation measures the cost per frame of pushing full
// frames through the CSMA/CD segment with a single sender. Send runs
// inside the timed loop, so allocs/op counts everything one frame costs
// from the sender's call to the receiver's upcall.
func BenchmarkSharedSaturation(b *testing.B) {
	k := sim.New(1)
	seg := NewSegment(k, 0)
	a := seg.Attach("a")
	seg.Attach("b").OnReceive(func(f *Frame) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(Frame{Dst: 1, NetLen: 1500})
		if i%benchBurst == benchBurst-1 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkSharedContention measures four stations contending, per
// frame, Send included.
func BenchmarkSharedContention(b *testing.B) {
	k := sim.New(1)
	seg := NewSegment(k, 0)
	sts := make([]*Station, 4)
	for i := range sts {
		sts[i] = seg.Attach(string(rune('a' + i)))
		sts[i].OnReceive(func(f *Frame) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := sts[i%4]
		st.Send(Frame{Dst: (st.ID() + 1) % 4, NetLen: 700})
		if i%benchBurst == benchBurst-1 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkBridgeForwarding measures the bridge's per-frame forwarding
// decision — source learning, destination lookup, trunk hand-off — the
// path every delivered frame takes in a multi-segment fabric. It must
// not allocate: thousand-host topologies hit it millions of times.
func BenchmarkBridgeForwarding(b *testing.B) {
	k := sim.New(1)
	seg := NewSegment(k, 0)
	br := NewBridge(seg, 0, 16, 1024, func(dstSeg int, f *Frame) {})
	tx := seg.Attach("h0")
	tx.OnReceive(func(f *Frame) {})
	br.learn(512, 3)
	f := &Frame{Src: 0, Dst: 512, NetLen: 1500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.sawFrame(tx, f)
	}
	if allocs := testing.AllocsPerRun(100, func() { br.sawFrame(tx, f) }); allocs > 0 {
		b.Fatalf("bridge forwarding allocates %v per frame", allocs)
	}
}

// BenchmarkSwitchForwarding measures the store-and-forward path per
// frame, Send included.
func BenchmarkSwitchForwarding(b *testing.B) {
	k := sim.New(1)
	sw := NewSwitch(k, 0, 10*sim.Microsecond)
	a := sw.Attach("a")
	sw.Attach("b").OnReceive(func(f *Frame) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(Frame{Dst: 1, NetLen: 1500})
		if i%benchBurst == benchBurst-1 {
			k.Run()
		}
	}
	k.Run()
}

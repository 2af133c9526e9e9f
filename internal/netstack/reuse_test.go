package netstack

import (
	"bytes"
	"math/rand"
	"testing"

	"fxnet/internal/sim"
)

// TestWriteBufferReuseUnderLoss: Write copies, so a sender may overwrite
// its buffer the moment Write returns — as with a real socket — even
// while lost frames force the stack to retransmit bytes from segments
// the caller's buffer has long since moved past.
func TestWriteBufferReuseUnderLoss(t *testing.T) {
	k, seg, a, b := lossRig(t, 13, 0.05)
	const writes, size = 200, 3000
	rng := rand.New(rand.NewSource(1))
	want := make([]byte, writes*size)
	rng.Read(want)
	var got []byte
	var conn *Conn
	l := b.Listen(80)
	k.Go("server", func(p *sim.Proc) {
		got = l.Accept(p).Read(p, len(want))
	})
	k.Go("client", func(p *sim.Proc) {
		conn = a.Connect(p, 1, 80)
		buf := make([]byte, size)
		for i := 0; i < writes; i++ {
			copy(buf, want[i*size:])
			conn.Write(p, buf)
			for j := range buf {
				buf[j] = 0xEE // the stack must not see this
			}
		}
	})
	k.RunUntil(sim.Time(10 * sim.Minute))
	if !bytes.Equal(got, want) {
		t.Fatalf("received %d bytes, want the %d written, byte for byte", len(got), len(want))
	}
	if seg.Stats().Corrupted == 0 || conn.Retransmits == 0 {
		t.Fatalf("no loss recovery exercised: corrupted=%d retransmits=%d",
			seg.Stats().Corrupted, conn.Retransmits)
	}
}

// TestBidirectionalReuseUnderDuplicateAndReorder runs a long seeded
// random stream each way over a wire that drops, duplicates and
// reorders frames. Segment buffers are reused as soon as an ACK covers
// them, so duplicated, held-back and retransmitted frames often alias a
// buffer that already carries later bytes; the receiver must discard
// every such stale frame unread. Writes and reads use random lengths
// from buffers the caller reuses and poisons.
func TestBidirectionalReuseUnderDuplicateAndReorder(t *testing.T) {
	k, seg, a, b := lossRig(t, 17, 0.03)
	seg.SetDuplicateProb(0.05)
	seg.SetReorderProb(0.05)
	const total = 300_000
	stream := func(seed int64) []byte {
		data := make([]byte, total)
		rand.New(rand.NewSource(seed)).Read(data)
		return data
	}
	aToB, bToA := stream(1), stream(2)

	write := func(p *sim.Proc, c *Conn, data []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 4*MSS)
		for off := 0; off < len(data); {
			n := min(1+rng.Intn(len(buf)), len(data)-off)
			copy(buf, data[off:off+n])
			c.Write(p, buf[:n])
			for i := range buf[:n] {
				buf[i] = 0xEE
			}
			off += n
		}
	}
	read := func(p *sim.Proc, c *Conn, seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		out := make([]byte, 0, total)
		dst := make([]byte, 3*MSS)
		for len(out) < total {
			n := min(1+rng.Intn(len(dst)), total-len(out))
			if err := c.ReadFull(p, dst[:n]); err != nil {
				t.Errorf("read after %d bytes: %v", len(out), err)
				return out
			}
			out = append(out, dst[:n]...)
		}
		return out
	}

	var gotAtB, gotAtA []byte
	var conns []*Conn
	l := b.Listen(80)
	k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		conns = append(conns, c)
		k.Go("server-writer", func(p *sim.Proc) { write(p, c, bToA, 3) })
		gotAtB = read(p, c, 4)
	})
	k.Go("client", func(p *sim.Proc) {
		c := a.Connect(p, 1, 80)
		conns = append(conns, c)
		k.Go("client-writer", func(p *sim.Proc) { write(p, c, aToB, 5) })
		gotAtA = read(p, c, 6)
	})
	k.RunUntil(sim.Time(30 * sim.Minute))
	k.Release()

	if !bytes.Equal(gotAtB, aToB) {
		t.Errorf("a→b: received %d bytes, want the %d sent, byte for byte", len(gotAtB), len(aToB))
	}
	if !bytes.Equal(gotAtA, bToA) {
		t.Errorf("b→a: received %d bytes, want the %d sent, byte for byte", len(gotAtA), len(bToA))
	}
	st := seg.Stats()
	var stale int64
	for _, c := range conns {
		stale += c.DupSegsIn
	}
	if st.Duplicated == 0 || st.Reordered == 0 || st.Corrupted == 0 || stale == 0 {
		t.Errorf("faults not exercised: duplicated=%d reordered=%d corrupted=%d stale segments discarded=%d",
			st.Duplicated, st.Reordered, st.Corrupted, stale)
	}
}

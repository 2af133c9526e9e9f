package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	k := New(1)
	var marks []Time
	k.Go("sleeper", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(10 * Millisecond)
		marks = append(marks, p.Now())
		p.Sleep(5 * Millisecond)
		marks = append(marks, p.Now())
	})
	k.Run()
	want := []Time{0, Time(10 * Millisecond), Time(15 * Millisecond)}
	if len(marks) != 3 {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("marks[%d] = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestProcInterleavesWithEvents(t *testing.T) {
	k := New(1)
	var order []string
	k.After(5*Millisecond, "mid", func() { order = append(order, "event") })
	k.Go("p", func(p *Proc) {
		order = append(order, "start")
		p.Sleep(10 * Millisecond)
		order = append(order, "end")
	})
	k.Run()
	if len(order) != 3 || order[0] != "start" || order[1] != "event" || order[2] != "end" {
		t.Errorf("order = %v", order)
	}
}

func TestProcSuspendWake(t *testing.T) {
	k := New(1)
	var got Time
	p := k.Go("waiter", func(p *Proc) {
		p.Suspend()
		got = p.Now()
	})
	k.After(42*Millisecond, "waker", func() { p.Wake() })
	k.Run()
	if !p.Done() {
		t.Fatal("process did not finish")
	}
	if got != Time(42*Millisecond) {
		t.Errorf("woke at %v, want 42ms", got)
	}
}

func TestWakeNonSuspendedPanics(t *testing.T) {
	k := New(1)
	p := k.Go("idle", func(p *Proc) { p.Sleep(Second) })
	k.After(Millisecond, "bad-wake", func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic waking non-suspended process")
			}
		}()
		p.Wake()
	})
	k.Run()
}

func TestGateFIFO(t *testing.T) {
	k := New(1)
	var g Gate
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			g.Wait(p)
			order = append(order, i)
		})
	}
	k.After(Millisecond, "sig", func() {
		if g.Len() != 3 {
			t.Errorf("Len = %d, want 3", g.Len())
		}
		g.Signal()
	})
	k.After(2*Millisecond, "bcast", func() { g.Broadcast() })
	k.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v, want [0 1 2]", order)
	}
	if g.Signal() {
		t.Error("Signal on empty gate reported a wake")
	}
}

func TestChanProducerConsumer(t *testing.T) {
	k := New(1)
	var c Chan[int]
	var got []int
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, c.Get(p))
		}
	})
	for i := 0; i < 5; i++ {
		i := i
		k.After(Duration(i+1)*Millisecond, "produce", func() { c.Put(i) })
	}
	k.Run()
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Errorf("got[%d] = %d", i, v)
		}
	}
}

func TestChanTryGet(t *testing.T) {
	var c Chan[string]
	if _, ok := c.TryGet(); ok {
		t.Error("TryGet on empty chan succeeded")
	}
	c.Put("a")
	c.Put("b")
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	if v, ok := c.TryGet(); !ok || v != "a" {
		t.Errorf("TryGet = %q, %v", v, ok)
	}
}

func TestChanBufferedBeforeConsumer(t *testing.T) {
	k := New(1)
	var c Chan[int]
	c.Put(7)
	c.Put(8)
	var got []int
	k.Go("late-consumer", func(p *Proc) {
		got = append(got, c.Get(p), c.Get(p))
	})
	k.Run()
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Errorf("got = %v", got)
	}
}

func TestProcToProcHandoff(t *testing.T) {
	k := New(1)
	var ping, pong Chan[int]
	var trace []int
	k.Go("ping", func(p *Proc) {
		for i := 0; i < 3; i++ {
			ping.Put(i)
			trace = append(trace, pong.Get(p))
		}
	})
	k.Go("pong", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v := ping.Get(p)
			p.Sleep(Millisecond)
			pong.Put(v * 10)
		}
	})
	k.Run()
	if len(trace) != 3 || trace[0] != 0 || trace[1] != 10 || trace[2] != 20 {
		t.Errorf("trace = %v", trace)
	}
	if k.Now() != Time(3*Millisecond) {
		t.Errorf("final time = %v", k.Now())
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []string {
		k := New(99)
		var order []string
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i))
			k.Go(name, func(p *Proc) {
				r := p.Kernel().Rand("proc:" + p.Name())
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(r.Intn(1000)) * Microsecond)
					order = append(order, p.Name())
				}
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 100 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestReleaseUnwindsParkedProcs: processes still parked when the queue
// drains (daemons waiting on a gate, a reader suspended forever) keep
// their goroutines until Release, which unwinds them without running an
// event, moving the clock, or resuming their bodies.
func TestReleaseUnwindsParkedProcs(t *testing.T) {
	k := New(1)
	var g Gate
	resumed := false
	var parked []*Proc
	for _, name := range []string{"a", "b"} {
		parked = append(parked, k.Go("gate:"+name, func(p *Proc) {
			g.Wait(p)
			resumed = true
		}))
	}
	parked = append(parked, k.Go("suspend", func(p *Proc) {
		p.Sleep(Millisecond)
		p.Suspend()
		resumed = true
	}))
	finished := k.Go("finisher", func(p *Proc) { p.Sleep(2 * Millisecond) })
	end := k.Run()
	executed := k.Executed()
	before := runtime.NumGoroutine()
	k.Release()
	if k.Executed() != executed || k.Now() != end {
		t.Errorf("Release ran events: executed %d→%d, now %v→%v", executed, k.Executed(), end, k.Now())
	}
	if resumed {
		t.Error("Release resumed a parked body")
	}
	for _, p := range parked {
		if !p.Done() || !p.Killed() {
			t.Errorf("%s: done=%v killed=%v after Release", p.Name(), p.Done(), p.Killed())
		}
	}
	if !finished.Done() || finished.Killed() {
		t.Error("Release touched a finished process")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before-len(parked) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Release, want at most %d", runtime.NumGoroutine(), before-len(parked))
		}
		time.Sleep(time.Millisecond)
	}
	k.Release() // idempotent
}

package sim

import "fmt"

// Proc is a simulation process: a goroutine that interleaves with the event
// loop so that exactly one of (event loop, some process) executes at a
// time. Processes express sequential blocking behaviour — compute phases,
// blocking sends and receives — that would be awkward as event callbacks.
//
// A process may only call its blocking methods (Sleep, Suspend, Yield) from
// its own goroutine. Wake must be called from event context (or from
// another process), never from the process itself.
type Proc struct {
	k        *Kernel
	name     string
	wakeName string // precomputed "wake:"+name: Sleep/Wake allocate nothing
	resume   chan struct{}
	yielded  chan struct{}
	done     bool
	waiting  bool // true while parked in Suspend
	started  bool
	killed   bool
}

// killedSignal unwinds a killed process's goroutine from its next (or
// current) park point back through the body to the spawn wrapper.
type killedSignal struct{}

// Go spawns a new process executing body. The body starts at the current
// virtual time (via an immediate event) and runs until it returns.
func (k *Kernel) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		k:        k,
		name:     name,
		wakeName: "wake:" + name,
		resume:   make(chan struct{}),
		yielded:  make(chan struct{}),
	}
	k.At(k.now, "start:"+name, func() {
		p.started = true
		k.procs = append(k.procs, p)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(killedSignal); !ok {
						panic(r)
					}
				}
				p.done = true
				p.yielded <- struct{}{}
			}()
			<-p.resume
			if p.killed {
				panic(killedSignal{})
			}
			body(p)
		}()
		p.dispatch()
	})
	return p
}

// dispatch hands control to the process goroutine and blocks the event
// loop until the process yields (blocks or finishes). Must be called from
// event context.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	prev := p.k.cur
	p.k.cur = p
	p.resume <- struct{}{}
	<-p.yielded
	p.k.cur = prev
}

// park yields control back to the event loop and blocks until dispatched
// again. Must be called from the process goroutine. A process killed while
// parked unwinds here instead of resuming.
func (p *Proc) park() {
	p.yielded <- struct{}{}
	<-p.resume
	if p.killed {
		panic(killedSignal{})
	}
}

// Name reports the process name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel the process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Done reports whether the process body has returned (or been killed).
func (p *Proc) Done() bool { return p.done }

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// Kill terminates the process: its goroutine unwinds from its current park
// point (Sleep, Suspend, Gate.Wait) without resuming the body — the
// host-crash primitive of the fault model. Kill must be called from event
// context or from a different process; it is idempotent, and killing a
// finished process is a no-op. Any pending wake events for the process
// become no-ops.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	if p.k.cur == p {
		panic("sim: process " + p.name + " killed itself")
	}
	p.killed = true
	p.waiting = false
	p.k.atProc(p.k.now, p)
}

// Release unwinds every process still parked once the simulation is over
// — daemons blocked in an accept or a read that will never complete — so
// their goroutines exit and the run's state can be collected. Each
// unwinds as if killed, but on the spot: no event runs and the clock
// does not move. Call it after the run's results are extracted; the
// kernel must not run again.
func (k *Kernel) Release() {
	for _, p := range k.procs {
		if !p.done {
			p.killed = true
			p.waiting = false
			p.dispatch()
		}
	}
	k.procs = nil
}

// Sleep advances the process's virtual time by d, allowing other events to
// run meanwhile. A non-positive d yields without advancing time.
func (p *Proc) Sleep(d Duration) {
	p.checkSelf("Sleep")
	if d < 0 {
		d = 0
	}
	p.k.atProc(p.k.now.Add(d), p)
	p.park()
}

// Yield lets all events scheduled for the current instant (before this
// call) run, then resumes.
func (p *Proc) Yield() { p.Sleep(0) }

// Suspend parks the process until another component calls Wake. It is the
// building block for blocking queues and condition variables.
func (p *Proc) Suspend() {
	p.checkSelf("Suspend")
	p.waiting = true
	p.park()
}

// Wake schedules the process to resume at the current virtual time. It
// must be called from event context or from a different process; waking a
// process that is not suspended panics, since that always indicates a
// lost-wakeup bug in the caller.
func (p *Proc) Wake() {
	if p.k.cur == p {
		panic("sim: process " + p.name + " woke itself")
	}
	if p.done || p.killed {
		return // the process died while parked; nothing to wake
	}
	if !p.waiting {
		panic("sim: Wake on non-suspended process " + p.name)
	}
	p.waiting = false
	p.k.atProc(p.k.now, p)
}

// Waiting reports whether the process is parked in Suspend.
func (p *Proc) Waiting() bool { return p.waiting }

func (p *Proc) checkSelf(op string) {
	if p.k.cur != p {
		panic(fmt.Sprintf("sim: %s called from outside process %s", op, p.name))
	}
}

// Gate is a FIFO wait queue of processes: a minimal condition variable for
// the simulation. The zero value is ready to use. Waiters live in a ring
// buffer, so a long-lived gate reuses its storage instead of re-slicing a
// growing backing array.
type Gate struct {
	buf  []*Proc
	head int
	n    int
}

// push appends p at the tail of the ring, growing as needed.
func (g *Gate) push(p *Proc) {
	if g.n == len(g.buf) {
		g.grow()
	}
	g.buf[(g.head+g.n)&(len(g.buf)-1)] = p
	g.n++
}

// pop removes and returns the head of the ring, which must be non-empty.
func (g *Gate) pop() *Proc {
	p := g.buf[g.head]
	g.buf[g.head] = nil
	g.head = (g.head + 1) & (len(g.buf) - 1)
	g.n--
	return p
}

// remove deletes the first occurrence of p, preserving FIFO order of the
// rest, and reports whether it was present.
func (g *Gate) remove(p *Proc) bool {
	mask := len(g.buf) - 1
	for i := 0; i < g.n; i++ {
		if g.buf[(g.head+i)&mask] != p {
			continue
		}
		for j := i; j < g.n-1; j++ {
			g.buf[(g.head+j)&mask] = g.buf[(g.head+j+1)&mask]
		}
		g.buf[(g.head+g.n-1)&mask] = nil
		g.n--
		return true
	}
	return false
}

// grow doubles the ring (power-of-two capacity), re-linearizing so head
// lands at index 0.
func (g *Gate) grow() {
	n := len(g.buf) * 2
	if n == 0 {
		n = 4
	}
	buf := make([]*Proc, n)
	for i := 0; i < g.n; i++ {
		buf[i] = g.buf[(g.head+i)&(len(g.buf)-1)]
	}
	g.buf = buf
	g.head = 0
}

// Wait parks p until a Signal or Broadcast reaches it.
func (g *Gate) Wait(p *Proc) {
	g.push(p)
	p.Suspend()
}

// WaitTimeout parks p until a Signal or Broadcast reaches it or the
// deadline d elapses, and reports whether the process was signaled (true)
// or timed out (false). A non-positive d waits without a deadline.
func (g *Gate) WaitTimeout(p *Proc, d Duration) bool {
	if d <= 0 {
		g.Wait(p)
		return true
	}
	timedOut := false
	ev := p.k.After(d, "gate.timeout:"+p.name, func() {
		// Only a process still queued in this gate can time out: a
		// Signal removes it from waiters before waking it.
		if g.remove(p) {
			timedOut = true
			p.Wake()
		}
	})
	g.Wait(p)
	ev.Cancel()
	return !timedOut
}

// Signal wakes the longest-waiting live process, if any, and reports
// whether one was woken. Processes that died while queued are discarded.
func (g *Gate) Signal() bool {
	for g.n > 0 {
		p := g.pop()
		if p.done || p.killed {
			continue
		}
		p.Wake()
		return true
	}
	return false
}

// Broadcast wakes every live waiting process in FIFO order. Only event
// context runs during the drain, so no new waiter can slip in mid-loop.
func (g *Gate) Broadcast() {
	for g.n > 0 {
		p := g.pop()
		if p.done || p.killed {
			continue
		}
		p.Wake()
	}
}

// Len reports the number of waiting processes.
func (g *Gate) Len() int { return g.n }

// Chan is an unbounded FIFO queue connecting event-context producers to
// process-context consumers. Put never blocks; Get blocks the calling
// process until an item is available. Items live in a ring buffer: the
// queue's memory stays proportional to its high-water mark instead of
// pinning every consumed item's backing array, and a drained queue
// reuses its storage allocation-free.
type Chan[T any] struct {
	buf  []T
	head int
	n    int
	gate Gate
}

// Put appends v and wakes one waiting consumer, if any.
func (c *Chan[T]) Put(v T) {
	if c.n == len(c.buf) {
		c.grow()
	}
	c.buf[(c.head+c.n)&(len(c.buf)-1)] = v
	c.n++
	c.gate.Signal()
}

// grow doubles the ring (power-of-two capacity), re-linearizing so head
// lands at index 0.
func (c *Chan[T]) grow() {
	n := len(c.buf) * 2
	if n == 0 {
		n = 4
	}
	buf := make([]T, n)
	for i := 0; i < c.n; i++ {
		buf[i] = c.buf[(c.head+i)&(len(c.buf)-1)]
	}
	c.buf = buf
	c.head = 0
}

// take removes and returns the head item, zeroing its slot so consumed
// values are not retained.
func (c *Chan[T]) take() T {
	var zero T
	v := c.buf[c.head]
	c.buf[c.head] = zero
	c.head = (c.head + 1) & (len(c.buf) - 1)
	c.n--
	return v
}

// Get removes and returns the oldest item, blocking p until one exists.
func (c *Chan[T]) Get(p *Proc) T {
	for c.n == 0 {
		c.gate.Wait(p)
	}
	return c.take()
}

// TryGet removes and returns the oldest item without blocking.
func (c *Chan[T]) TryGet() (T, bool) {
	if c.n == 0 {
		var zero T
		return zero, false
	}
	return c.take(), true
}

// Len reports the number of queued items.
func (c *Chan[T]) Len() int { return c.n }

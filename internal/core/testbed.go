package core

import (
	"fmt"
	"hash/fnv"

	"fxnet/internal/ethernet"
	"fxnet/internal/faults"
	"fxnet/internal/fx"
	"fxnet/internal/netstack"
	"fxnet/internal/pvm"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

// testbed is a built fabric, ready to run: one kernel per segment
// partition, the program hosts attached to their segments, the PVM
// machine over them, and the collector that sees captures in global
// time order.
type testbed struct {
	parts   []*sim.Kernel
	hosts   []*netstack.Host
	names   []string // trace host names: the hosts, then the monitor (and video)
	machine *pvm.Machine
	col     *trace.Collector
	stats   func() ethernet.Stats
	eng     *sim.Engine       // drives a multi-segment run; nil for one partition
	seg     *ethernet.Segment // one partition's shared segment, for fault hooks; nil when switched
	video   *netstack.Host    // the cross-traffic host; nil without cross traffic
}

// buildShared builds a single-partition fabric: the paper's shared
// segment (or the switch replacing it), or a one-segment topology. It
// taps its medium directly — one kernel delivers captures in time order
// already — so nothing is buffered between capture and collector, and a
// streaming run keeps O(windows) memory. It needs no engine.
func buildShared(cfg RunConfig, p int, netCfg netstack.Config, pvmCfg pvm.Config) *testbed {
	seed, rate := cfg.Seed, cfg.BitRate
	if topo := cfg.Topology; topo != nil {
		seg := topo.Segments[0]
		seed = partitionSeed(seed, seg.Name)
		if seg.BitRate != 0 {
			rate = seg.BitRate
		}
	}
	k := sim.New(seed)
	tb := &testbed{parts: []*sim.Kernel{k}}
	var (
		medium ethernet.TrafficSource
		attach func(name string) ethernet.Port
		sw     *ethernet.Switch
	)
	if cfg.Switched {
		sw = ethernet.NewSwitch(k, rate, 10*sim.Microsecond)
		medium = sw
		attach = func(name string) ethernet.Port { return sw.Attach(name) }
		tb.stats = func() ethernet.Stats { return ethernet.Stats{Frames: sw.Delivered, Bytes: sw.DeliveredBytes} }
	} else {
		tb.seg = ethernet.NewSegment(k, rate)
		if cfg.FrameLossProb > 0 {
			tb.seg.SetDropProb(cfg.FrameLossProb)
		}
		medium = tb.seg
		attach = func(name string) ethernet.Port { return tb.seg.Attach(name) }
		tb.stats = tb.seg.Stats
	}
	tb.attachHosts(p, netCfg, func(_ int, name string) (*sim.Kernel, ethernet.Port) {
		return k, attach(name)
	})
	if cfg.Topology == nil {
		// The measurement workstation: attached, promiscuous, silent.
		attach("monitor")
	}
	tb.col = trace.Capture(medium)
	if cfg.GuaranteeProgram {
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					sw.Guarantee(i, j)
				}
			}
		}
	}
	if cfg.CrossTrafficKBps > 0 {
		st := attach("video")
		tb.names = append(tb.names, "video")
		tb.video = netstack.NewHost(k, st, "video", netCfg)
	}
	tb.machine = pvm.NewMachine(k, tb.hosts, pvmCfg)
	return tb
}

// attachHosts attaches the program hosts alpha0..alpha{p-1} — host h
// joins the port and partition kernel attach returns for it — and names
// them, then the monitor, as the trace's hosts.
func (tb *testbed) attachHosts(p int, netCfg netstack.Config, attach func(h int, name string) (*sim.Kernel, ethernet.Port)) {
	for h := 0; h < p; h++ {
		name := fmt.Sprintf("alpha%d", h)
		k, st := attach(h, name)
		tb.hosts = append(tb.hosts, netstack.NewHost(k, st, name, netCfg))
		tb.names = append(tb.names, name)
	}
	tb.names = append(tb.names, "monitor")
}

// applyFaults binds the fault schedule's hooks to the single partition:
// host faults to the machine and team, link-level faults to the shared
// segment. A switched fabric has no single collision domain, so its
// link-level faults are rejected by Apply's validation rather than
// silently ignored.
func (tb *testbed) applyFaults(schedule *faults.Schedule, team *fx.Team) error {
	hooks := faults.Hooks{
		HostIndex: func(name string) (int, bool) {
			for i := range tb.hosts {
				if name == fmt.Sprintf("alpha%d", i) ||
					name == fmt.Sprintf("host%d", i) ||
					name == fmt.Sprint(i) {
					return i, true
				}
			}
			return 0, false
		},
		Crash:   tb.machine.KillHost,
		Restart: tb.machine.RestartHost,
		Stall: func(host int, d sim.Duration) {
			team.Final().StallHost(host, d)
		},
		Annotate: func(at sim.Time, f faults.Fault) {
			tb.col.Trace().AddMark(at, f.String())
		},
	}
	if seg := tb.seg; seg != nil {
		hooks.LinkDown = seg.SetLinkDown
		hooks.SegmentDown = seg.SetSegmentDown
		hooks.Partition = seg.SetPartition
		hooks.Heal = seg.Heal
		hooks.BitRate = seg.SetBitRate
		hooks.Duplicate = seg.SetDuplicateProb
		hooks.Reorder = seg.SetReorderProb
	}
	return faults.Apply(tb.parts[0], schedule, hooks)
}

// partitionSeed derives a segment partition's kernel seed from the run
// seed and the segment name, so each partition draws independent random
// streams that do not depend on segment order.
func partitionSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte("topology/" + name))
	return seed ^ int64(h.Sum64())
}

// tapFunc adapts a tap registration function to the TrafficSource
// interface trace.Capture expects.
type tapFunc func(fn func(ethernet.Capture))

func (t tapFunc) Tap(fn func(ethernet.Capture)) { t(fn) }

// buildBridged builds a multi-segment fabric, partitioned by segment:
// one kernel per segment, hosts attached to their pinned segment's
// kernel, driven through the conservative engine. Frames crossing
// segments travel bridge → trunk (engine Send with the summed trunk
// latencies) → peer bridge. Captures are buffered per segment and merged
// into one collector at each barrier in (time, segment) order, which is
// a total order because every partition has already executed past the
// merged window.
//
// Serial and parallel execution run the identical window/barrier
// schedule, so they produce byte-identical traces; the choice lives in
// RunOpts, never in RunConfig, because it must not enter cache keys.
func buildBridged(cfg RunConfig, p int, netCfg netstack.Config, pvmCfg pvm.Config) *testbed {
	topo := cfg.Topology
	nSeg := len(topo.Segments)
	tb := &testbed{parts: make([]*sim.Kernel, nSeg)}
	parts := tb.parts
	delay := make([]sim.Duration, nSeg)
	for i := range parts {
		parts[i] = sim.New(partitionSeed(cfg.Seed, topo.Segments[i].Name))
		delay[i] = topo.trunkLatency(i)
	}
	// Per-pair horizons: each partition pair advances independently up
	// to its own trunk-path bound, so one low-latency trunk does not
	// serialize the whole topology.
	eng := sim.NewEngineMatrix(parts, topo.LookaheadMatrix())
	tb.eng = eng

	segOf := topo.segmentOf()
	segs := make([]*ethernet.Segment, nSeg)
	for i := range segs {
		rate := topo.Segments[i].BitRate
		if rate == 0 {
			rate = cfg.BitRate
		}
		segs[i] = ethernet.NewSegment(parts[i], rate)
		i := i
		// Captures record only frames addressed into this segment
		// (broadcasts always pass), so a frame relayed across several
		// segments is counted once, at its destination — matching what
		// a monitor on that segment would keep after address filtering.
		segs[i].SetTapFilter(func(dst int) bool {
			s, ok := segOf[dst]
			return ok && s == i
		})
	}
	tb.stats = func() ethernet.Stats {
		var sum ethernet.Stats
		for _, seg := range segs {
			st := seg.Stats()
			sum.Frames += st.Frames
			sum.Bytes += st.Bytes
			sum.Collisions += st.Collisions
			sum.MaxBackoffHit += st.MaxBackoffHit
		}
		return sum
	}

	// Bridges and trunks. A frame leaving segment i for segment j is
	// timestamped now + delay[i] + delay[j] ≥ window start + lookahead,
	// which is exactly the conservative contract the engine enforces.
	bridges := make([]*ethernet.Bridge, nSeg)
	for i := range bridges {
		i := i
		bridges[i] = ethernet.NewBridge(segs[i], i, nSeg, p, func(dstSeg int, f *ethernet.Frame) {
			src := i
			at := parts[src].Now().Add(delay[src] + delay[dstSeg])
			fr := *f // f is the segment's; the trunk carries a copy
			eng.Send(src, dstSeg, at, "trunk", func() {
				bridges[dstSeg].DeliverFromTrunk(src, fr)
			})
		})
	}

	// Hosts keep their global indexes as station addresses, so traces
	// read identically to single-segment runs.
	tb.attachHosts(p, netCfg, func(h int, name string) (*sim.Kernel, ethernet.Port) {
		return parts[segOf[h]], segs[segOf[h]].AttachID(name, h)
	})

	// Per-segment capture buffers, merged at each barrier up to the
	// engine's watermark. Partitions advance to different horizons, so
	// a buffer may hold captures newer than another partition's
	// progress — but every event still to run anywhere is at or after
	// the watermark, so draining strictly below it yields the global
	// (time, segment) order; the remainder waits for a later barrier.
	capBuf := make([][]ethernet.Capture, nSeg)
	for i := range segs {
		i := i
		segs[i].Tap(func(c ethernet.Capture) {
			capBuf[i] = append(capBuf[i], c)
		})
	}
	var emit func(ethernet.Capture)
	tb.col = trace.Capture(tapFunc(func(fn func(ethernet.Capture)) { emit = fn }))
	cur := make([]int, nSeg)
	eng.OnBarrier(func(watermark sim.Time) {
		for i := range cur {
			cur[i] = 0
		}
		for {
			best := -1
			for i := range capBuf {
				// Per-segment buffers are time-ordered, so once a head
				// reaches the watermark the rest of that buffer has too.
				if cur[i] == len(capBuf[i]) || capBuf[i][cur[i]].Time >= watermark {
					continue
				}
				if best < 0 || capBuf[i][cur[i]].Time < capBuf[best][cur[best]].Time {
					best = i
				}
			}
			if best < 0 {
				break
			}
			emit(capBuf[best][cur[best]])
			cur[best]++
		}
		for i := range capBuf {
			if n := cur[i]; n > 0 {
				rest := copy(capBuf[i], capBuf[i][n:])
				capBuf[i] = capBuf[i][:rest]
			}
		}
	})

	tb.machine = pvm.NewMachine(parts[0], tb.hosts, pvmCfg)
	// A task exit is physical news: its own partition sees it
	// immediately, and it reaches every other partition one trunk path
	// later through the engine's message path. The signal each partition
	// observes is then a pure function of virtual time — identical in
	// serial and parallel mode, and independent of how the per-pair
	// engine cuts its rounds (see pvm.DistributeExits).
	tb.machine.DistributeExits(nSeg,
		func(hostIndex int) int { return segOf[hostIndex] },
		func(srcPart, dstPart int, fn func()) {
			at := parts[srcPart].Now().Add(delay[srcPart] + delay[dstPart])
			eng.Send(srcPart, dstPart, at, "pvm.exit", fn)
		})
	return tb
}

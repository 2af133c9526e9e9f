package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"fxnet/internal/kernels"
	"fxnet/internal/sim"
)

func TestParseTopology(t *testing.T) {
	topo, err := ParseTopology("lan0:0-15@100~2ms,lan1:16-31")
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Segments) != 2 {
		t.Fatalf("got %d segments", len(topo.Segments))
	}
	s0 := topo.Segments[0]
	if s0.Name != "lan0" || len(s0.Hosts) != 16 || s0.BitRate != 100e6 || s0.TrunkLatency != 2*sim.Millisecond {
		t.Fatalf("segment 0 parsed wrong: %+v", s0)
	}
	if topo.Segments[1].TrunkLatency != 0 {
		t.Fatalf("segment 1 latency should be unset (default)")
	}
	if m := topo.LookaheadMatrix(); m[0][1] != 3*sim.Millisecond || m[1][0] != 3*sim.Millisecond {
		t.Fatalf("lookahead matrix %v, want 3ms off-diagonal (2ms + default 1ms)", m)
	}
	if err := topo.ValidateFor(32); err != nil {
		t.Fatal(err)
	}
	if err := topo.ValidateFor(16); err == nil {
		t.Fatal("accepted placement with 32 pins for 16 processors")
	}
}

func TestParseTopologyRejects(t *testing.T) {
	bad := []string{
		"",                     // empty
		"lan0",                 // no hosts
		"lan0:0-1,lan0:2-3",    // duplicate name
		"lan0:0-1,lan1:1-2",    // host pinned twice
		"lan0:0-1~0ms,lan1:2",  // zero trunk latency
		"lan0:0-1~-5ms,lan1:2", // negative trunk latency
		"lan0:0-1@0,lan1:2",    // zero bit rate
		"lan0:0-1@-10,lan1:2",  // negative bit rate
		"la n0:0-1",            // bad name
		"lan0:a-b",             // bad range
		"lan0:5-2",             // inverted range
		"lan0:0-65535",         // beyond address space
		"lan0:",                // empty hosts
	}
	for _, spec := range bad {
		if _, err := ParseTopology(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestTopologySpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"lan0:0-15,lan1:16-31",
		"lan0:0-7@100~2ms,lan1:8-15~500us",
		"a:0,b:1,c:2,d:3",
		"lan0:0-1+3,lan1:2",
	} {
		topo, err := ParseTopology(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if got := topo.Spec(); got != spec {
			t.Errorf("Spec() = %q, want %q", got, spec)
		}
		// JSON round trip preserves the canonical spec.
		data, err := topo.JSON()
		if err != nil {
			t.Fatal(err)
		}
		topo2, err := ParseTopologyJSON(data)
		if err != nil {
			t.Fatalf("%q: JSON round trip: %v", spec, err)
		}
		if topo2.Spec() != spec {
			t.Errorf("JSON round trip Spec() = %q, want %q", topo2.Spec(), spec)
		}
	}
}

func FuzzParseTopology(f *testing.F) {
	f.Add("lan0:0-15,lan1:16-31")
	f.Add("lan0:0-7@100~2ms,lan1:8-15~500us")
	f.Add("lan0:0-1~0ms")
	f.Add("a:0,a:1")
	f.Add("x:0-300")
	f.Add("seg:1+2+3@0.5~1ns")
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := ParseTopology(spec)
		if err != nil {
			return
		}
		// Any accepted topology must satisfy its own invariants...
		if err := topo.Validate(); err != nil {
			t.Fatalf("parsed %q but Validate: %v", spec, err)
		}
		for i := range topo.Segments {
			if topo.Segments[i].TrunkLatency < 0 {
				t.Fatalf("parsed %q with negative latency", spec)
			}
		}
		if m := topo.LookaheadMatrix(); len(topo.Segments) > 1 {
			for i := range m {
				for j := range m[i] {
					if i != j && m[i][j] <= 0 {
						t.Fatalf("parsed %q with non-positive lookahead L[%d][%d]", spec, i, j)
					}
				}
			}
		}
		// ...and its canonical form must be a fixed point.
		canon, err := ParseTopology(topo.Spec())
		if err != nil {
			t.Fatalf("canonical spec %q of %q rejected: %v", topo.Spec(), spec, err)
		}
		if canon.Spec() != topo.Spec() {
			t.Fatalf("canonical spec not stable: %q → %q", topo.Spec(), canon.Spec())
		}
	})
}

func TestLookaheadMatrixShapes(t *testing.T) {
	ms := sim.Millisecond
	us := sim.Microsecond
	cases := []struct {
		name string
		spec string
		want map[[2]int]sim.Duration // spot checks; omitted pairs unchecked
	}{
		{
			// Star of equals: every pair costs two default trunks.
			name: "star-uniform",
			spec: "a:0,b:1,c:2,d:3",
			want: map[[2]int]sim.Duration{
				{0, 1}: 2 * ms, {1, 2}: 2 * ms, {0, 3}: 2 * ms, {3, 0}: 2 * ms,
			},
		},
		{
			// Single trunk pair: the degenerate two-segment fabric.
			name: "single-trunk",
			spec: "left:0-1~500us,right:2-3~500us",
			want: map[[2]int]sim.Duration{{0, 1}: 1 * ms, {1, 0}: 1 * ms},
		},
		{
			// Chain-like spread: a fast middle segment is near both
			// slow ends, but the ends stay far from each other — the
			// per-pair structure a scalar lookahead collapses.
			name: "chain-fast-middle",
			spec: "west:0~2ms,mid:1~100us,east:2~2ms",
			want: map[[2]int]sim.Duration{
				{0, 1}: 2*ms + 100*us,
				{1, 2}: 2*ms + 100*us,
				{0, 2}: 4 * ms,
			},
		},
		{
			// Asymmetric latencies: each pair prices its own trunks.
			name: "asymmetric",
			spec: "a:0~1ms,b:1~3ms,c:2~7ms",
			want: map[[2]int]sim.Duration{
				{0, 1}: 4 * ms, {0, 2}: 8 * ms, {1, 2}: 10 * ms,
			},
		},
	}
	for _, tc := range cases {
		topo, err := ParseTopology(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m := topo.LookaheadMatrix()
		n := len(topo.Segments)
		for pair, want := range tc.want {
			if got := m[pair[0]][pair[1]]; got != want {
				t.Errorf("%s: L[%d][%d] = %v, want %v", tc.name, pair[0], pair[1], got, want)
			}
		}
		for i := 0; i < n; i++ {
			if m[i][i] != 0 {
				t.Errorf("%s: diagonal L[%d][%d] = %v", tc.name, i, i, m[i][i])
			}
			for j := 0; j < n; j++ {
				if m[i][j] != m[j][i] {
					t.Errorf("%s: asymmetric star matrix L[%d][%d]=%v L[%d][%d]=%v",
						tc.name, i, j, m[i][j], j, i, m[j][i])
				}
				// Path-closure: no relay can beat the direct entry, the
				// property the engine's horizon math relies on.
				for k := 0; k < n; k++ {
					if i != j && k != i && k != j && m[i][k]+m[k][j] < m[i][j] {
						t.Errorf("%s: L[%d][%d]=%v undercut via %d (%v)",
							tc.name, i, j, m[i][j], k, m[i][k]+m[k][j])
					}
				}
			}
		}
	}
}

func TestLookaheadMatrixSingleSegmentNil(t *testing.T) {
	topo, err := ParseTopology("lan0:0-3")
	if err != nil {
		t.Fatal(err)
	}
	if m := topo.LookaheadMatrix(); m != nil {
		t.Fatalf("single-segment matrix = %v, want nil", m)
	}
}

func TestTopologyWideHostRange(t *testing.T) {
	// The parser accepts thousand-host pins now that trace addresses
	// are 16-bit; only the broadcast address stays reserved.
	topo, err := ParseTopology("lan0:0-1023,lan1:1024-2047")
	if err != nil {
		t.Fatal(err)
	}
	if n := topo.NumHosts(); n != 2048 {
		t.Fatalf("NumHosts = %d, want 2048", n)
	}
	if err := topo.ValidateFor(2048); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTopology("lan0:0-65534"); err == nil {
		t.Fatal("accepted 65535 hosts; 0xFFFF must stay reserved for broadcast")
	}
}

// topoDigest runs cfg with the given PDES mode and returns the binary
// trace digest.
func topoDigest(t *testing.T, cfg RunConfig, mode PDESMode) string {
	t.Helper()
	res, err := RunWithOpts(cfg, RunOpts{PDES: mode})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := res.Trace.WriteBinary(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestTopologySerialParallelIdentical(t *testing.T) {
	topo, err := ParseTopology("lan0:0-1,lan1:2-3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Program: "2dfft", Seed: 7, P: 4,
		Params:   kernels.Params{N: 16, Iters: 3},
		Topology: topo,
	}
	serial := topoDigest(t, cfg, PDESSerial)
	parallel := topoDigest(t, cfg, PDESParallel)
	if serial != parallel {
		t.Fatalf("serial digest %s != parallel digest %s", serial, parallel)
	}
}

func TestTopologyTrafficVolume(t *testing.T) {
	// A switched 2-segment run must carry roughly the same payload
	// volume as the shared-segment baseline — same program, same data.
	topo, err := ParseTopology("lan0:0-1,lan1:2-3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Program: "2dfft", Seed: 1, Params: kernels.Params{N: 32, Iters: 5}}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() == 0 {
		t.Fatal("no packets captured on topology run")
	}
	got, want := res.Trace.TotalBytes(), base.Trace.TotalBytes()
	if got < want*9/10 || got > want*11/10 {
		t.Errorf("topology bytes %d far from shared %d", got, want)
	}
	if res.Trace.Meta["topology"] != topo.Spec() {
		t.Errorf("trace meta topology = %q", res.Trace.Meta["topology"])
	}
}

func TestTopologySingleSegment(t *testing.T) {
	// A one-segment topology is a single partition: it runs on its
	// segment's kernel with no engine and no trunks — a degenerate but
	// legal case, so the PDES mode cannot matter.
	topo, err := ParseTopology("lan0:0-3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Program: "sor", Seed: 3, P: 4,
		Params:   kernels.Params{N: 16, Iters: 2},
		Topology: topo,
	}
	if s, p := topoDigest(t, cfg, PDESSerial), topoDigest(t, cfg, PDESParallel); s != p {
		t.Fatalf("single-segment serial %s != parallel %s", s, p)
	}
}

func TestTopologyRejectsIncompatibleFeatures(t *testing.T) {
	topo, _ := ParseTopology("lan0:0-1,lan1:2-3")
	base := RunConfig{Program: "sor", P: 4, Topology: topo}
	cases := []struct {
		name   string
		mutate func(*RunConfig)
	}{
		{"switched", func(c *RunConfig) { c.Switched = true }},
		{"loss", func(c *RunConfig) { c.FrameLossProb = 0.1 }},
		{"faults", func(c *RunConfig) { c.FaultScript = "5s:linkdown host2" }},
		{"degrade", func(c *RunConfig) { c.Degrade = true }},
		{"crosstraffic", func(c *RunConfig) { c.CrossTrafficKBps = 100 }},
		{"guarantee", func(c *RunConfig) { c.GuaranteeProgram = true }},
		{"heartbeat", func(c *RunConfig) { c.HeartbeatMisses = 3 }},
		{"wrongP", func(c *RunConfig) { c.P = 8 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestTopologyStreamMatchesRetained(t *testing.T) {
	// The streaming characterizer must see the identical packet order
	// the retained trace records.
	topo, err := ParseTopology("lan0:0-1,lan1:2-3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Program: "sor", Seed: 5, P: 4,
		Params:   kernels.Params{N: 16, Iters: 2},
		Topology: topo,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Characterize(res)
	_, rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AggSize.N != want.AggSize.N || rep.AggKBps != want.AggKBps {
		t.Fatalf("stream (%d pkts, %.3f KB/s) != retained (%d pkts, %.3f KB/s)",
			rep.AggSize.N, rep.AggKBps, want.AggSize.N, want.AggKBps)
	}
	if !strings.Contains(res.Trace.Meta["topology"], "lan0") {
		t.Fatal("missing topology meta")
	}
}

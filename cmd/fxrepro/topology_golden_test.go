package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fxnet"
)

// Golden trace digests for the -quick programs on explicit topologies:
// every program runs on a 1-segment, a 2-segment and a 4-segment
// network, and the pinned digest must come out of BOTH the serial and
// the parallel execution — for multi-segment runs, the byte-identical-
// trace contract of the conservative PDES kernel (DESIGN.md §13).
//
// Like goldenQuickDigests, these are a determinism contract: a mismatch
// means event ordering, trunk latency accounting, the barrier capture
// merge, or the trace codec changed behaviour.
//
// Re-pinned when the engine moved from a single global lookahead window
// to per-pair horizons with distributed pvm exit propagation: the
// multi-segment round schedule (and therefore same-instant interleaving
// across trunks) legitimately changed. Single-segment goldens in
// golden_test.go were unaffected, and serial and parallel execution
// still produce these exact bytes.
var goldenTopologyDigests = map[string]map[string]string{
	// All four hosts on one segment: the single-partition topology path
	// (salted partition seed, no monitor station, topology metadata).
	"lan0:0-3": {
		"sor":     "96362e8fd090325f115c3ca8b29bdbc69bd7aa75f7b67ba9c03c6063d90780e5",
		"2dfft":   "d93636b11682c806b19c8a26bc26f9dc5caa22a963589e6e2ea94d45184b359a",
		"t2dfft":  "1dab7b6ae4ddd8ad080917e5ef3471fbf417a4969a859b81eb618aad8851155f",
		"seq":     "219b617ebbed3c9aa6cb54591c5d547238617baf9a5947fdd3cb148f3a869dd7",
		"hist":    "3c2b29713a9bebc319d6e49df098c6a492e0b5c07d13f1c9874d745bc79c45dc",
		"airshed": "5777662e4ad3e67e4291cd00c98f9a3249b464fec201567e2f343c8958bbc6a9",
	},
	// Hosts 0-3 split pairwise across two segments.
	"lan0:0-1,lan1:2-3": {
		"sor":     "5d2c5685c4dc93890b091531b883d2d21026bd3c79b6cc5da1479f5749161012",
		"2dfft":   "673731284360b3e1aaccc3926b6c52756d253f5a5e01de7347ff07584b5e0e88",
		"t2dfft":  "579decd5ebc7107e050c6d6f386979c44de0eced11dbdaa0d012def2de9e3c85",
		"seq":     "7cf84500e931a1f8c0f01e00eccb220468385ef7feff27bbb2008eeae83df923",
		"hist":    "52c0dbccc7fd7a0c34d5adb85ea1bc86c5293ef7d823ecde6e7be9747f44207f",
		"airshed": "9bea730f3f9f4745c9850437c91199c920848e29b89ef5953e9455a96e490da7",
	},
	// One host per segment — every frame crosses a trunk.
	"lan0:0,lan1:1,lan2:2,lan3:3": {
		"sor":     "b9162cfbbd3411d05b00dcd739888757782b202e29a46ab718846acd76fe78dc",
		"2dfft":   "c190e2b72240608e63b2b286da588d9b65b0f9fc3130b50beed78ff4c11d798a",
		"t2dfft":  "b8fe93ff627ce97570514aba26400739c19a2e03b72f0e71da4b59be9335b6bf",
		"seq":     "a799b84aa96b2fe83d08e87ab83f5c5e46104b85761bc348a404aa5cd5cdc424",
		"hist":    "58276e02f18482fe82dbcd05057ee05cff56135ed6184c470fe393b5b852646a",
		"airshed": "598e7d56ea0cb32a7df163fab68d28a94ce5f6c0dd188bf10eb5ddc3e8e9c625",
	},
}

// quickTopologyDigest runs one -quick program on the given topology with
// the given execution mode and returns its binary trace digest.
func quickTopologyDigest(t testing.TB, name, spec string, mode fxnet.PDESMode) string {
	topo, err := fxnet.ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := reproConfig(name, reproOptions{Quick: true, Seed: 42})
	cfg.Topology = topo
	res, err := fxnet.RunWithOpts(cfg, fxnet.RunOpts{PDES: mode})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := res.Trace.WriteBinary(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenTopologyDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every -quick program twice per topology")
	}
	for spec, digests := range goldenTopologyDigests {
		for _, name := range fxnet.Programs() {
			spec, name := spec, name
			t.Run(spec+"/"+name, func(t *testing.T) {
				t.Parallel()
				want, ok := digests[name]
				if !ok {
					t.Fatalf("no golden digest recorded for %q on %q", name, spec)
				}
				serial := quickTopologyDigest(t, name, spec, fxnet.PDESSerial)
				parallel := quickTopologyDigest(t, name, spec, fxnet.PDESParallel)
				if serial != parallel {
					t.Fatalf("serial/parallel divergence:\n serial   %s\n parallel %s\n"+
						"the conservative engine broke the byte-identical-trace contract",
						serial, parallel)
				}
				if serial != want {
					t.Errorf("topology trace digest changed:\n got  %s\n want %s", serial, want)
				}
			})
		}
	}
}

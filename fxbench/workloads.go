package main

import (
	"fmt"

	"fxnet/internal/airshed"
	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/kernels"
)

// goldenSeed is the default seed, the one every pinned digest below was
// recorded at. Runs at another seed check that every pass reproduces
// its first, and re-run one pass at goldenSeed after the timed window.
const goldenSeed = 42

// quickGolden is the SHA-256 of each program's binary trace at -quick
// sizes and seed 42, copied from cmd/fxrepro/golden_test.go.
var quickGolden = map[string]string{
	"sor":     "a25d5ba700db8269f4c2bc4698e90a14b9e4dd28b3f1889e03471a288e757947",
	"2dfft":   "28a5e6ca06c90e3294979fa8a4ba75b193db56f4a5d918299ce0e4e0a1a64218",
	"t2dfft":  "f0ba808a68bdea5d68d38f420020803cc0de94a661bd401d7d3fb25d9550dc1a",
	"seq":     "bad34c9f673c9aa85c4bb7b65c4af9e1b16fa7199ef03d8eac0de6336bb77d78",
	"hist":    "57d57b41067e48ffc29d3e7b213792e25cd5ac7bd237aa1595f3a2a0d78f9873",
	"airshed": "db10f5d0c59caff0d1cfd09d39410da34adda1adf3f605815ab467d304ec2a36",
}

// topo64Spec is the asymmetric four-segment fabric of the PDES
// benchmark: one 100 µs trunk among 2 ms trunks.
const topo64Spec = "lan0:0-15~2ms,lan1:16-31~2ms,lan2:32-47~100us,lan3:48-63~2ms"

var batchSpecs = map[string]batchSpec{
	"quick_repro": {
		name:    "quick_repro",
		viaFarm: true,
		golden:  quickGolden,
		jobs: func(seed int64) ([]farm.Job, error) {
			var jobs []farm.Job
			for _, name := range core.ProgramNames() {
				cfg := core.RunConfig{Program: name, Seed: seed}
				if name == core.Airshed {
					cfg.AirshedParams = airshed.Params{Layers: 4, Species: 8, Grid: 128, Steps: 2, Hours: 5, Band: 4}
				} else {
					cfg.Params = kernels.Params{N: 64, Iters: 10}
				}
				jobs = append(jobs, farm.Job{Label: name, Config: cfg})
			}
			return jobs, nil
		},
	},
	"topo64_2dfft": {
		name:        "topo64_2dfft",
		opts:        core.RunOpts{PDES: core.PDESAuto},
		serialCheck: true,
		golden: map[string]string{
			// The serial ≡ parallel digest committed with the PDES engine.
			"2dfft-topo64": "7450d189389056f34830b88f690a639e0ff240db60a3f7f2af34e18ca469f6b6",
		},
		jobs: func(seed int64) ([]farm.Job, error) {
			topo, err := core.ParseTopology(topo64Spec)
			if err != nil {
				return nil, fmt.Errorf("topology: %w", err)
			}
			cfg := core.RunConfig{Program: "2dfft", P: 64, Params: kernels.Params{N: 256, Iters: 20}, Seed: seed, Topology: topo}
			return []farm.Job{{Label: "2dfft-topo64", Config: cfg}}, nil
		},
	},
}

// Command fxbench is fxnet's benchmark: one command that runs a named
// workload against fxnet's public functions, checks every output, and
// prints the workload's metrics by name and unit as the last line of
// standard output. See README.md for the workloads and the metric
// catalogue.
//
// Usage (from the repository root):
//
//	bash fxbench/run.sh --workload quick_repro --seed 42 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fxnet/internal/farm"
)

// outDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const outDir = ".bench_build/fxbench"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: quick_repro, topo64_2dfft, serve_zipf")
		seed     = flag.Int64("seed", goldenSeed, "input seed (the pinned digests are recorded at 42)")
		secs     = flag.Int("seconds", 30, "measured window, seconds")
		traceArg = flag.Int("trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
		probe    = flag.Bool("probe-setup", false, "internal: build the workload's inputs and exit (times set-up)")
		fxnetd   = flag.String("fxnetd", filepath.Join(".bench_build", "bin", "fxnetd"), "fxnetd binary for serve_zipf")
	)
	flag.Parse()
	if *probe {
		if err := setupOnly(*workload, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "fxbench:", err)
			return 2
		}
		return 0
	}
	if *secs < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "fxbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	res, err := measure(*workload, *seed, *secs, *traceArg == 1, *fxnetd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fxbench:", err)
		return 2
	}
	fmt.Println(res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "fxbench: %d of %d checks failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// measure runs one workload and assembles its result line.
func measure(workload string, seed int64, secs int, traced bool, fxnetd string) (Result, error) {
	stamp := newStamp(workload, seed, traced, secs)
	stampJSON, _ := json.Marshal(map[string]Stamp{"stamp": stamp}) // plain struct, cannot fail
	fmt.Println(string(stampJSON))
	fmt.Fprintln(os.Stderr, "fxbench:", string(stampJSON))

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return Result{}, err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(work)
	bin, err := os.Executable()
	if err != nil {
		return Result{}, err
	}

	var (
		t      tally
		values map[string]float64
		rec    *Recorder
	)
	if spec, ok := batchSpecs[workload]; ok {
		values, rec, err = runBatch(spec, seed, secs, traced, bin, &t)
	} else if workload == "serve_zipf" {
		values, rec, err = runServe(serveOptions{seed: seed, secs: secs, traced: traced, fxnetd: fxnetd, work: work}, &t)
	} else {
		return Result{}, fmt.Errorf("unknown workload %q (have quick_repro, topo64_2dfft, serve_zipf)", workload)
	}
	if err != nil {
		return Result{}, err
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "fxbench: FAIL:", p)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		for _, d := range perLayer {
			if _, ok := values[d.name]; !ok {
				values[d.name] = 0 // a layer this workload does not cross
			}
		}
		if err := writeSpans(stamp, rec); err != nil {
			return Result{}, err
		}
	}
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Result{}, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return t.result(defs, values)
}

// writeSpans writes the traced run's spans and their per-layer self
// times, stamped, to outDir.
func writeSpans(stamp Stamp, rec *Recorder) error {
	spans := rec.Spans()
	self := map[string]float64{}
	for layer, d := range LayerSelfTimes(spans) {
		self[layer] = d.Seconds()
	}
	b, err := json.Marshal(struct {
		Stamp    Stamp              `json:"stamp"`
		SelfTime map[string]float64 `json:"self_time_s"`
		Spans    []Span             `json:"spans"`
	}{stamp, self, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", stamp.Workload, stamp.Seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "fxbench: self time %-10s %.3fs\n", l, self[l])
	}
	fmt.Fprintf(os.Stderr, "fxbench: %d spans written to %s\n", len(spans), path)
	return nil
}

// setupOnly is the body of a set-up probe: build a batch workload's
// inputs and the farm a pass starts from, then return.
func setupOnly(workload string, seed int64) error {
	spec, ok := batchSpecs[workload]
	if !ok {
		return fmt.Errorf("no set-up probe for workload %q", workload)
	}
	jobs, err := spec.jobs(seed)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return errors.New("workload has no jobs")
	}
	farm.New(farm.Options{Workers: 1})
	return nil
}

// setupProbes is how many times set-up is repeated; its median is setup_s.
const setupProbes = 21

// probeSetup times a batch workload's set-up — process start, runtime
// start-up, and building the inputs and farm — by running the benchmark
// binary in probe mode, and returns the median in seconds.
func probeSetup(bin, workload string, seed int64) (float64, error) {
	var times []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(bin, "--probe-setup", "--workload", workload, "--seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		times = append(times, seconds(time.Since(start)))
	}
	return median(times), nil
}

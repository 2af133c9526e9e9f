package main

import (
	"encoding/json"
	"fmt"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names; README.md says what each
// one means on each workload.
type metricDef struct {
	name string
	unit string
}

// endToEnd metrics are printed by an untraced run (--trace 0) on every
// workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_packet", "allocs/pkt"},
	{"alloc_bytes_per_packet", "B/pkt"},
	{"max_jobs_per_s", "jobs/s"},
}

// cpuLayers are the layers whose profile share a traced run reports as
// <layer>.cpu_share.
var cpuLayers = []string{
	"sim", "ethernet", "netstack", "pvm", "trace", "runtime.gc", "runtime.malloc",
	"kernels", "dsp", "fx", "server", "farm", "journal", "runtime.sched",
}

// perLayer metrics are printed by a traced run (--trace 1) on every
// workload; a layer the workload does not cross reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "share"})
	}
	return append(defs, []metricDef{
		{"sim.engine_windows", "count"},
		{"sim.engine_mean_active", "count"},
		{"sim.engine_cross_messages", "count"},
		{"sim.engine_null_publishes", "count"},
		{"core.run_s", "s"},
		{"core.host_ns_per_packet", "ns"},
		{"trace.packets", "count"},
		{"trace.bytes", "B"},
		{"trace.encode_s", "s"},
		{"sim.virtual_s", "s"},
		{"ethernet.frames", "count"},
		{"ethernet.collisions", "count"},
		{"ethernet.max_backoff_hits", "count"},
		{"fx.compute_virtual_s", "s"},
		{"fx.descheds", "count"},
		{"analysis.characterize_s", "s"},
		{"farm.batch_s", "s"},
		{"farm.executed", "count"},
		{"farm.deduped", "count"},
		{"farm.cache_hits", "count"},
		{"farm.reuse_ratio", "ratio"},
		{"farm.job_wall_ms_p50", "ms"},
		{"server.done_minus_wall_ms_p50", "ms"},
		{"server.submit_p50_ms", "ms"},
		{"server.status_p50_ms", "ms"},
		{"server.spectrum_p50_ms", "ms"},
		{"server.negotiate_p50_ms", "ms"},
		{"server.polls_per_job", "count"},
		{"server.throttled", "count"},
		{"server.shed", "count"},
		{"journal.appends_per_job", "count"},
		{"catalog.hits", "count"},
		{"qos.grants", "count"},
		{"loadgen.cold_p50_ms", "ms"},
		{"loadgen.cold_p90_ms", "ms"},
		{"loadgen.warm_p50_ms", "ms"},
		{"loadgen.warm_p99_ms", "ms"},
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.achieved_jobs_per_s", "jobs/s"},
		{"bench.tracing_overhead", "s"},
	}...)
}()

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// tally counts operations and correctness failures.
type tally struct {
	attempted, failed int64
	problems          []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one verified output.
func (t *tally) check(good bool, format string, args ...any) {
	if good {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

// result assembles the output line from the values a workload measured,
// requiring exactly the metric set the mode reports.
func (t *tally) result(defs []metricDef, values map[string]float64) (Result, error) {
	out := Result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return out, fmt.Errorf("workload did not measure %s", d.name)
		}
		out.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
	}
	if out.Attempted == 0 {
		return out, fmt.Errorf("no operations attempted")
	}
	return out, nil
}

func (r Result) String() string {
	b, _ := json.Marshal(r) // a map of finite floats always marshals
	return string(b)
}

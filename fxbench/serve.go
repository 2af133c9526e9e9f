package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/farm"
	"fxnet/internal/kernels"
)

// Serve workload parameters. README.md gives where each value comes
// from.
const (
	// memoEntries caps the daemon's memo below the keys a step
	// introduces, so repeat keys are answered from the memo or, once
	// evicted, from the disk cache.
	memoEntries = 32
	zipfS       = 1.3
	// warmLimitMs is the warm p99 a step must meet; the saturation
	// step's throughput counts as max_jobs_per_s only if it does.
	warmLimitMs = 250
	// setupRepeats is how many daemons are set up; setup_s is the median.
	setupRepeats = 7
)

// fitPs are the processor counts whose sor models are fitted at set-up,
// so catalog-backed admissions have points to choose from. The fits run
// sor at the paper's size, so set-up time is mostly that work rather
// than process start and fsync latency.
var fitPs = []int{2, 4}

// keyPrograms rotate across the key population; the two cost about the
// same to simulate, so cold latencies are not a mixture of two modes.
var keyPrograms = []string{"2dfft", "t2dfft"}

// runKey is one distinct submission of the serve workload.
type runKey struct {
	body []byte
	cfg  core.RunConfig
}

// keyPopulation builds the first n distinct tiny stream runs of a
// step's population: the -quick size of 2dfft and t2dfft at the paper's
// P=4, each with its own seed.
func keyPopulation(seed int64, pop, n int) []runKey {
	keys := make([]runKey, n)
	for i := range keys {
		prog := keyPrograms[i%len(keyPrograms)]
		s := seed*1_000_003 + int64(pop)*100_003 + int64(i)
		body, _ := json.Marshal(map[string]any{ // plain map of scalars, cannot fail
			"program": prog, "analysis": "stream", "p": 4, "n": 64, "iters": 10, "seed": s,
		})
		keys[i] = runKey{body: body, cfg: core.RunConfig{
			Program: prog, P: 4, Params: kernels.Params{N: 64, Iters: 10}, Seed: s,
		}}
	}
	return keys
}

type serveOptions struct {
	seed   int64
	secs   int
	traced bool
	fxnetd string
	work   string
}

// daemon is a child fxnetd with its own cache, catalog and journal.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	dir      string
	exited   chan error
	stopOnce sync.Once
	stopErr  error
}

func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "fxnetd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	portfile := filepath.Join(dir, "port")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-portfile", portfile, "-j", "1",
		"-cache", filepath.Join(dir, "cache"), "-journal", filepath.Join(dir, "journal.wal"),
		"-memo-entries", strconv.Itoa(memoEntries), "-drain-timeout", "20s")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fxnetd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(portfile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.base = "http://127.0.0.1:" + strings.TrimSpace(string(b))
			if resp, err := http.Get(d.base + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("fxnetd exited during start-up: %v (log in %s)", err, dir)
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("fxnetd not ready after 30s")
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit; later
// calls return the first call's outcome.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is fine
		select {
		case d.stopErr = <-d.exited:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
			d.stopErr = errors.New("fxnetd did not drain within 30s")
		}
	})
	return d.stopErr
}

// fitModels fits the sor models catalog admissions draw on, and waits
// for every fit job to finish.
func (d *daemon) fitModels(g *generator) error {
	for _, p := range fitPs {
		body := []byte(fmt.Sprintf(`{"program":"sor","p":%d,"seed":1}`, p))
		code, resp, _, err := g.do("fit", http.MethodPost, "/v1/models/fit", body, 0)
		if err != nil || code != http.StatusAccepted {
			return fmt.Errorf("fit P=%d: code %d err %v %s", p, code, err, resp)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(resp, &acc); err != nil {
			return fmt.Errorf("fit P=%d: %w", p, err)
		}
		for start := time.Now(); ; {
			code, resp, _, err := g.do("status", http.MethodGet, "/v1/runs/"+acc.ID, nil, 0)
			var st struct {
				State string `json:"state"`
			}
			if err != nil || code != http.StatusOK || json.Unmarshal(resp, &st) != nil {
				return fmt.Errorf("fit P=%d status: code %d err %v", p, code, err)
			}
			if st.State == "done" {
				break
			}
			if st.State == "failed" || st.State == "cancelled" || time.Since(start) > 30*time.Second {
				return fmt.Errorf("fit P=%d: %s", p, resp)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// setupDaemon is the serve workload's set-up: spawn fxnetd on fresh
// state, wait for readiness, fit the catalog models.
func setupDaemon(o serveOptions, i int) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(o.fxnetd, filepath.Join(o.work, fmt.Sprintf("fxnetd-%d", i)))
	if err != nil {
		return nil, 0, err
	}
	g := newGenerator(d.base, runtime.NumCPU(), nil)
	defer g.close()
	if err := d.fitModels(g); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// scrape reads the daemon's Prometheus counters, summing label sets.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}

var memStatRE = regexp.MustCompile(`(?m)^# (Mallocs|TotalAlloc) = (\d+)$`)

// heapCounters reads the daemon's cumulative allocation count and bytes
// from its heap profile's MemStats trailer.
func heapCounters(base string) (mallocs, bytes float64, err error) {
	resp, err := http.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, m := range memStatRE.FindAllSubmatch(body, -1) {
		v, _ := strconv.ParseFloat(string(m[2]), 64) // \d+ always parses
		if string(m[1]) == "Mallocs" {
			mallocs = v
		} else {
			bytes = v
		}
		found++
	}
	if found < 2 {
		return 0, 0, errors.New("heap profile has no MemStats trailer")
	}
	return mallocs, bytes, nil
}

// stepRun is one measured step with the daemon counters around it.
type stepRun struct {
	label               string
	sum                 stepSummary
	stats               *stepStats
	keys                []runKey
	before, after       map[string]float64
	mallocs, allocBytes float64
	cpuSeconds          float64 // fxnetd's user+system CPU time over the step
}

func (s *stepRun) delta(name string) float64 { return s.after[name] - s.before[name] }

// closedRate sizes a closed-loop step's schedule: more arrivals than
// any daemon on a few cores completes in the step.
const closedRate = 20_000

// measureStep plays one step of population pop against d for dur:
// open-loop at rate user jobs per second, or, when loops > 0, closed-loop
// from that many workers.
func measureStep(g *generator, d *daemon, seed int64, pop int, rate float64, loops int, dur time.Duration) (*stepRun, error) {
	sr := &stepRun{label: fmt.Sprintf("open %.0f jobs/s", rate)}
	if loops > 0 {
		sr.label, rate = fmt.Sprintf("closed %d loops", loops), closedRate
	}
	sched, nkeys := schedule(seed*7919+int64(pop), rate, dur, zipfS)
	sr.keys = keyPopulation(seed, pop, nkeys)
	bodies := make([][]byte, nkeys)
	for i, k := range sr.keys {
		bodies[i] = k.body
	}
	var err error
	if sr.before, err = scrape(d.base); err != nil {
		return nil, err
	}
	m0, b0, err := heapCounters(d.base)
	if err != nil {
		return nil, err
	}
	c0, err := processCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if loops > 0 {
		sr.stats = g.runClosed(sched, bodies, loops, dur)
	} else {
		sr.stats = g.runStep(sched, bodies)
	}
	c1, err := processCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	sr.cpuSeconds = c1 - c0
	m1, b1, err := heapCounters(d.base)
	if err != nil {
		return nil, err
	}
	if sr.after, err = scrape(d.base); err != nil {
		return nil, err
	}
	sr.mallocs, sr.allocBytes = m1-m0, b1-b0
	sr.sum = summarize(sr.stats, dur)
	fmt.Fprintf(os.Stderr, "fxbench: step %s: %d jobs (%d cold) achieved %.1f/s, warm p50 %.2f p99 %.1f ms, cold p50 %.1f ms, late p50 %.2f p99 %.2f ms, polls/job %.2f, growing=%v, failed %d, meets=%v\n",
		sr.label, sr.sum.jobs, len(sr.sum.cold), sr.sum.achieved, median(sr.sum.warm), tail(sr.sum.warmBlocks, 0.99), median(sr.sum.cold),
		median(sr.sum.lateMs), quantile(sr.sum.lateMs, 0.99), float64(sr.sum.polls)/float64(max(sr.sum.jobs, 1)), sr.sum.growing, sr.sum.failed,
		sr.sum.meets(warmLimitMs))
	for _, op := range []string{"submit", "status", "spectrum", "negotiate", "release", "models"} {
		xs := sr.stats.opMs[op]
		fmt.Fprintf(os.Stderr, "fxbench:   %-9s n=%5d p50 %6.2f p99 %7.2f max %7.2f ms\n",
			op, len(xs), median(xs), quantile(xs, 0.99), quantile(xs, 1))
	}
	return sr, nil
}

// The saturation step is closed-loop: satLoopsPerCore workers per core
// each issue their next arrival as soon as the last one finished, so the
// daemon always has work and cannot build a backlog. It gets satShare of
// the window; the rest goes to the load step, open-loop at loadRate user
// jobs per second. loadRate is fixed, not taken from the throughput a run
// measures, so the load step's figures (CPU time, allocations and peak
// memory per job, latencies) are measured at the same offered load in
// every run: about 40 % of the saturated throughput on a 2-vCPU VM
// (README.md).
const (
	satLoopsPerCore = 4
	satShare        = 0.4
	loadRate        = 250
)

// saturatedRate is max_jobs_per_s: the median over the saturation step's
// whole seconds of the user jobs completed in each, or 0 when the step
// failed an operation or missed the warm p99 limit. The median keeps a
// stall of the VM in one second from moving the figure.
func saturatedRate(s *stepRun, dur time.Duration) float64 {
	if s.sum.failed > 0 || len(s.sum.warm) == 0 || tail(s.sum.warmBlocks, 0.99) > warmLimitMs {
		return 0
	}
	perSecond := make([]float64, int(dur/time.Second))
	for _, j := range s.stats.jobs {
		if i := int(j.completed.Sub(s.stats.t0) / time.Second); i >= 0 && i < len(perSecond) {
			perSecond[i]++
		}
	}
	return median(perSecond)
}

// runServe measures the serve workload on fresh daemons: the saturation
// step (max_jobs_per_s), then the load step on another daemon for the
// other end-to-end metrics. Traced, it plays only the load step, twice,
// on two fresh daemons with the same keys and schedule and a CPU profile
// each, the second time with spans, and takes the per-layer metrics from
// that one.
func runServe(o serveOptions, t *tally) (map[string]float64, *Recorder, error) {
	nproc := runtime.NumCPU()
	window := time.Duration(o.secs) * time.Second
	var (
		setups []float64
		steps  []*stepRun
		gens   []*generator
	)
	// fresh sets up a daemon on new state; every set-up is timed.
	fresh := func() (*daemon, *generator, error) {
		d, took, err := setupDaemon(o, len(setups))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, seconds(took))
		g := newGenerator(d.base, nproc, nil)
		gens = append(gens, g)
		return d, g, nil
	}
	// retire stops a daemon whose steps are over.
	retire := func(d *daemon, g *generator) {
		g.close()
		if err := d.stop(); err != nil {
			t.fail("fxnetd shutdown: %v", err)
		}
	}
	// Untraced, two more daemons are set up for the steps.
	for !o.traced && len(setups) < setupRepeats-2 {
		d, g, err := fresh()
		if err != nil {
			return nil, nil, err
		}
		retire(d, g)
	}

	// loadStep plays the load step on a fresh daemon; every call replays
	// the same keys and schedule.
	loadStep := func(dur time.Duration, rec *Recorder, cpu *CPUByLayer) (*stepRun, float64, error) {
		d, g, err := fresh()
		if err != nil {
			return nil, 0, err
		}
		defer d.stop()
		g.rec = rec
		profErr := make(chan error, 1)
		if cpu != nil {
			go func() { profErr <- fetchProfile(d.base, dur, cpu) }()
		}
		sr, err := measureStep(g, d, o.seed, 1, loadRate, 0, dur)
		if err == nil && cpu != nil {
			err = <-profErr
		}
		if err != nil {
			return nil, 0, err
		}
		rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return nil, 0, err
		}
		retire(d, g)
		steps = append(steps, sr)
		return sr, rss, nil
	}

	values := map[string]float64{}
	if o.traced {
		var plainCPU, cpu CPUByLayer
		plain, _, err := loadStep(window/2, nil, &plainCPU)
		if err != nil {
			return nil, nil, err
		}
		rec := NewRecorder()
		traced, _, err := loadStep(window/2, rec, &cpu)
		if err != nil {
			return nil, nil, err
		}
		serveLayerValues(values, traced, &cpu)
		// The latencies come from the untraced step.
		values["loadgen.cold_p50_ms"] = median(plain.sum.cold)
		values["loadgen.warm_p50_ms"] = median(plain.sum.warm)
		values["loadgen.cold_p90_ms"] = quantile(plain.sum.cold, 0.9)
		values["loadgen.warm_p99_ms"] = tail(plain.sum.warmBlocks, 0.99)
		values["bench.tracing_overhead"] = (median(traced.sum.all) - median(plain.sum.all)) / 1000
		checkAll(t, steps, gens, nproc)
		return values, rec, nil
	}

	d, g, err := fresh()
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	satDur := max(time.Duration(float64(window)*satShare), time.Second)
	sat, err := measureStep(g, d, o.seed, 0, 0, satLoopsPerCore*nproc, satDur)
	if err != nil {
		return nil, nil, err
	}
	retire(d, g)
	steps = append(steps, sat)
	m, rss, err := loadStep(max(window-satDur, time.Second), nil, nil)
	if err != nil {
		return nil, nil, err
	}
	values["setup_s"] = median(setups)
	values["peak_rss_mb"] = rss
	values["wall_s"] = m.cpuSeconds / float64(m.sum.jobs)
	values["allocs_per_packet"] = m.mallocs / float64(m.sum.packets)
	values["alloc_bytes_per_packet"] = m.allocBytes / float64(m.sum.packets)
	values["max_jobs_per_s"] = saturatedRate(sat, satDur)
	checkAll(t, steps, gens, nproc)
	return values, nil, nil
}

// checkAll is the serve workload's correctness gate: every operation of
// every step, the connection cap of every generator, and each key's
// served spectrum against an in-process farm run of its config.
func checkAll(t *tally, steps []*stepRun, gens []*generator, nproc int) {
	for _, s := range steps {
		t.attempted += s.sum.ops + s.sum.failed
		t.failed += s.sum.failed
		t.problems = append(t.problems, s.stats.problems...)
		checkSpectra(s, t)
	}
	for _, g := range gens {
		t.check(g.conns.peak.Load() <= int64(nproc), "generator opened %d connections at once, cap %d", g.conns.peak.Load(), nproc)
	}
}

// processCPU is a process's user plus system CPU time, in seconds, from
// /proc/<pid>/stat (whose tick is USER_HZ, 100 on Linux).
func processCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at state (3);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return (utime + stime) / 100, nil
}

// fetchProfile takes a CPU profile of the daemon for dur and adds it.
func fetchProfile(base string, dur time.Duration, cpu *CPUByLayer) error {
	secs := int(math.Max(1, math.Round(dur.Seconds())))
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, secs))
	if err != nil {
		return fmt.Errorf("daemon profile: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("daemon profile: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon profile: %s: %s", resp.Status, raw)
	}
	return cpu.AddProfile(raw)
}

// serveLayerValues fills the serve per-layer metrics from a traced step.
func serveLayerValues(values map[string]float64, s *stepRun, cpu *CPUByLayer) {
	for _, l := range cpuLayers {
		values[l+".cpu_share"] = cpu.Share(l)
	}
	sum := s.sum
	submitted := s.delta("fxnetd_farm_submitted_total")
	executed := s.delta("fxnetd_farm_executed_total")
	values["farm.executed"] = executed
	values["farm.deduped"] = s.delta("fxnetd_farm_deduped_total")
	values["farm.cache_hits"] = s.delta("fxnetd_farm_cache_hits_total")
	if submitted > 0 {
		values["farm.reuse_ratio"] = (submitted - executed) / submitted
	}
	values["farm.job_wall_ms_p50"] = median(sum.wallMs)
	values["server.done_minus_wall_ms_p50"] = median(sum.overheadMs)
	values["server.submit_p50_ms"] = median(s.stats.opMs["submit"])
	values["server.status_p50_ms"] = median(s.stats.opMs["status"])
	values["server.spectrum_p50_ms"] = median(s.stats.opMs["spectrum"])
	values["server.negotiate_p50_ms"] = median(s.stats.opMs["negotiate"])
	if sum.jobs > 0 {
		values["server.polls_per_job"] = float64(sum.polls) / float64(sum.jobs)
		values["journal.appends_per_job"] = s.delta("fxnetd_journal_appends_total") / float64(sum.jobs)
	}
	values["server.throttled"] = s.delta("fxnetd_http_throttled_total")
	values["server.shed"] = s.delta("fxnetd_shed_total")
	values["catalog.hits"] = s.delta("fxnetd_catalog_hits_total")
	values["qos.grants"] = float64(sum.grants)
	values["loadgen.late_p99_ms"] = quantile(sum.lateMs, 0.99)
	values["loadgen.achieved_jobs_per_s"] = sum.achieved
}

// spectrumLine is one NDJSON line of a served spectrum: the header
// fields or one bin. Null numbers (non-finite values) decode as nil.
type spectrumLine struct {
	Bins  *int     `json:"bins"`
	DF    *float64 `json:"df"`
	N     *int     `json:"n"`
	Freq  *float64 `json:"freq"`
	Power *float64 `json:"power"`
}

// checkSpectra compares each key's served spectrum with an in-process
// farm run of the same configuration, one check per key.
func checkSpectra(s *stepRun, t *tally) {
	var jobs []farm.Job
	var idx []int
	for k := range s.stats.bodies {
		jobs = append(jobs, farm.Job{Label: strconv.Itoa(k), Config: s.keys[k].cfg, Stream: true})
		idx = append(idx, k)
	}
	f := farm.New(farm.Options{Workers: runtime.NumCPU()})
	for i, jr := range f.RunBatch(jobs) {
		k := idx[i]
		if jr.Err != nil {
			t.fail("reference run for key %d: %v", k, jr.Err)
			continue
		}
		if err := sameSpectrum(s.stats.bodies[k], jr.Report.AggSpectrum); err != nil {
			t.fail("key %d (%s): %v", k, s.keys[k].body, err)
			continue
		}
		t.ok()
	}
}

// sameSpectrum reports whether an NDJSON spectrum body carries exactly
// the reference spectrum's header and bins.
func sameSpectrum(body []byte, ref *dsp.Spectrum) error {
	if ref == nil {
		return errors.New("reference run has no spectrum")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var head spectrumLine
	if err := dec.Decode(&head); err != nil {
		return fmt.Errorf("header: %w", err)
	}
	if head.Bins == nil || *head.Bins != len(ref.Freq) || head.N == nil || *head.N != ref.N || !sameFloat(head.DF, ref.DF) {
		return errors.New("header differs from the reference")
	}
	for i := range ref.Freq {
		var bin spectrumLine
		if err := dec.Decode(&bin); err != nil {
			return fmt.Errorf("bin %d: %w", i, err)
		}
		if !sameFloat(bin.Freq, ref.Freq[i]) || !sameFloat(bin.Power, ref.Power[i]) {
			return fmt.Errorf("bin %d differs from the reference", i)
		}
	}
	if dec.More() {
		return errors.New("more bins than the reference")
	}
	return nil
}

// sameFloat compares a decoded JSON number bit for bit; null stands for
// a non-finite value.
func sameFloat(got *float64, want float64) bool {
	if got == nil {
		return math.IsNaN(want) || math.IsInf(want, 0)
	}
	return math.Float64bits(*got) == math.Float64bits(want)
}

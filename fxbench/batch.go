package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"fxnet/internal/core"
	"fxnet/internal/farm"
)

// batchSpec is one in-process workload: the runs of one pass and how a
// pass executes them.
type batchSpec struct {
	name string
	// jobs builds the pass's run configurations from the seed.
	jobs func(seed int64) ([]farm.Job, error)
	// viaFarm runs the pass through a one-worker farm (which also
	// characterizes each trace); otherwise each job is one core.Run.
	viaFarm bool
	opts    core.RunOpts
	// golden holds each job's trace digest at goldenSeed.
	golden map[string]string
	// serialCheck re-runs the pass with the serial engine after the
	// timed window; its traces must match the parallel passes.
	serialCheck bool
}

// passOut is what one pass produced.
type passOut struct {
	wall    time.Duration
	digests map[string]string
	results []*core.Result
	stats   farm.Stats
	allocs  uint64
	abytes  uint64
}

func (p *passOut) packets() (n int64) {
	for _, r := range p.results {
		n += int64(r.Trace.Len())
	}
	return n
}

// traceDigest is the SHA-256 of a trace's binary encoding, the identity
// the golden tests pin.
func traceDigest(res *core.Result) (string, error) {
	h := sha256.New()
	if err := res.Trace.WriteBinary(h); err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runPass executes one pass; rec, when non-nil, receives its spans.
func runPass(spec batchSpec, jobs []farm.Job, rec *Recorder) (*passOut, error) {
	// Every pass starts from a collected heap, so garbage an earlier pass
	// left behind does not bill its collection to this one.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := &passOut{digests: map[string]string{}}
	root := rec.Begin("bench.pass", 0)
	start := time.Now()
	if spec.viaFarm {
		batch := rec.Begin("farm.RunBatch", root)
		// One worker runs the jobs one after another, so each job's span
		// runs from the previous completion to its own.
		last := time.Now()
		f := farm.New(farm.Options{Workers: 1, OnProgress: func(ev farm.Event) {
			now := time.Now()
			rec.Add("core.Run", batch, last, now)
			last = now
		}})
		jrs := f.RunBatch(jobs)
		rec.End(batch)
		for _, jr := range jrs {
			if jr.Err != nil {
				return nil, fmt.Errorf("%s: %w", jr.Job.Label, jr.Err)
			}
			out.results = append(out.results, jr.Result)
		}
		out.stats = f.Stats()
	} else {
		for _, j := range jobs {
			id := rec.Begin("core.Run", root)
			res, err := core.RunWithOpts(j.Config, spec.opts)
			rec.End(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", j.Label, err)
			}
			out.results = append(out.results, res)
		}
	}
	for i, res := range out.results {
		id := rec.Begin("trace.encode", root)
		d, err := traceDigest(res)
		rec.End(id)
		if err != nil {
			return nil, err
		}
		out.digests[jobs[i].Label] = d
	}
	out.wall = time.Since(start)
	rec.End(root)
	runtime.ReadMemStats(&after)
	out.allocs = after.Mallocs - before.Mallocs
	out.abytes = after.TotalAlloc - before.TotalAlloc
	return out, nil
}

// compareDigests counts one check per job: got must equal want.
func compareDigests(t *tally, what string, got, want map[string]string) {
	for label, w := range want {
		g, ok := got[label]
		t.check(ok && g == w, "%s %s: trace digest %s, want %s", what, label, g, w)
	}
}

// runBatch measures a batch workload for secs seconds. Untraced, it
// times cold passes — every job simulated — and reports the end-to-end
// metrics; traced, it alternates untraced and traced passes and reports
// the per-layer metrics.
func runBatch(spec batchSpec, seed int64, secs int, traced bool, bin string, t *tally) (map[string]float64, *Recorder, error) {
	jobs, err := spec.jobs(seed)
	if err != nil {
		return nil, nil, err
	}
	golden, err := spec.jobs(goldenSeed)
	if err != nil {
		return nil, nil, err
	}
	var setup float64
	if !traced {
		if setup, err = probeSetup(bin, spec.name, seed); err != nil {
			return nil, nil, err
		}
	}

	var (
		rec        *Recorder
		cpu        CPUByLayer
		plain      []float64 // untraced pass seconds
		withSpan   []float64 // traced pass seconds
		rss        float64
		allocs     uint64
		abytes     uint64
		packets    int64
		last       *passOut // only the newest passes are kept: traces are large
		lastTraced *passOut
	)
	if traced {
		rec = NewRecorder()
	}
	var ref map[string]string
	if seed == goldenSeed {
		ref = spec.golden
	}
	window := time.Duration(secs) * time.Second
	begin := time.Now()
	for i := 0; ; i++ {
		n := len(plain) + len(withSpan)
		done := n >= 3 && (!traced || (len(plain) >= 2 && len(withSpan) >= 2))
		next := time.Duration(median(append(plain, withSpan...)) * float64(time.Second))
		if done && time.Since(begin)+next > window {
			break
		}
		// A traced run profiles every pass, so the traced and untraced
		// passes differ only in their spans.
		traceThis := traced && i%2 == 1
		var prof bytes.Buffer
		r := rec
		if !traceThis {
			r = nil
		}
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		p, err := runPass(spec, jobs, r)
		if traced {
			pprof.StopCPUProfile()
			if err == nil {
				err = cpu.AddProfile(prof.Bytes())
			}
		}
		if err != nil {
			t.fail("pass %d: %v", i, err)
			return nil, nil, err
		}
		if ref == nil {
			ref = p.digests // later passes must reproduce the first
		}
		compareDigests(t, fmt.Sprintf("pass %d", i), p.digests, ref)
		last = p
		if traceThis {
			withSpan = append(withSpan, seconds(p.wall))
			lastTraced = p
			continue
		}
		if len(plain) == 0 {
			// The peak of one pass, the cost of one fxrepro run: later
			// passes would add whatever a run leaves behind.
			if rss, err = peakRSSMB("self"); err != nil {
				return nil, nil, err
			}
		}
		plain = append(plain, seconds(p.wall))
		allocs += p.allocs
		abytes += p.abytes
		packets += p.packets()
	}

	fmt.Fprintf(os.Stderr, "fxbench: %d passes, untraced seconds min %.4f median %.4f max %.4f\n",
		len(plain)+len(withSpan), quantile(plain, 0), median(plain), quantile(plain, 1))
	values := map[string]float64{}
	if traced {
		layerValues(values, lastTraced, rec, &cpu)
		values["bench.tracing_overhead"] = median(withSpan) - median(plain)
		if spec.viaFarm {
			values["analysis.characterize_s"] = characterizeProbe(last.results)
			values["core.run_s"] -= values["analysis.characterize_s"]
			values["core.host_ns_per_packet"] = values["core.run_s"] * 1e9 / values["trace.packets"]
		}
	} else {
		values["wall_s"] = median(plain)
		values["setup_s"] = setup
		values["peak_rss_mb"] = rss
		values["allocs_per_packet"] = float64(allocs) / float64(packets)
		values["alloc_bytes_per_packet"] = float64(abytes) / float64(packets)
		values["max_jobs_per_s"] = float64(len(jobs)) / median(plain)
	}
	last, lastTraced = nil, nil

	// Correctness after the timed window.
	if seed != goldenSeed {
		p, err := runPass(spec, golden, nil)
		if err != nil {
			t.fail("golden pass: %v", err)
		} else {
			compareDigests(t, "golden pass", p.digests, spec.golden)
		}
	}
	if spec.serialCheck {
		serial := spec
		serial.opts.PDES = core.PDESSerial
		p, err := runPass(serial, jobs, nil)
		if err != nil {
			t.fail("serial pass: %v", err)
		} else {
			compareDigests(t, "serial pass", p.digests, ref)
		}
	}
	return values, rec, nil
}

// characterizeProbe times core.Characterize over one pass's results —
// the analysis the farm runs inside each job — as the median of three
// repetitions, in seconds.
func characterizeProbe(results []*core.Result) float64 {
	var reps []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		for _, r := range results {
			core.Characterize(r)
		}
		reps = append(reps, seconds(time.Since(start)))
	}
	return median(reps)
}

// layerValues fills the batch per-layer metrics from the traced passes.
func layerValues(values map[string]float64, p *passOut, rec *Recorder, cpu *CPUByLayer) {
	for _, l := range cpuLayers {
		values[l+".cpu_share"] = cpu.Share(l)
	}
	spans := rec.Spans()
	self := SelfTimes(spans)
	perPass := map[string]map[int64]float64{} // span name → root → seconds
	add := func(name string, root int64, d time.Duration) {
		if perPass[name] == nil {
			perPass[name] = map[int64]float64{}
		}
		perPass[name][root] += seconds(d)
	}
	for _, s := range spans {
		add(s.Name, s.Root, self[s.ID])
		if s.Name == "farm.RunBatch" {
			// The whole batch call, not only the farm's own share.
			add("farm.batch", s.Root, time.Duration(s.End-s.Start))
		}
	}
	medianOf := func(name string) float64 {
		var xs []float64
		for _, v := range perPass[name] {
			xs = append(xs, v)
		}
		return median(xs)
	}
	values["core.run_s"] = medianOf("core.Run")
	values["trace.encode_s"] = medianOf("trace.encode")
	values["farm.batch_s"] = medianOf("farm.batch")

	// Work counters repeat exactly across passes; take the last one.
	var virt, compute float64
	var frames, colls, backoff, descheds int64
	for _, r := range p.results {
		virt += r.Elapsed.Seconds()
		frames += r.SegStats.Frames
		colls += r.SegStats.Collisions
		backoff += r.SegStats.MaxBackoffHit
		for _, w := range r.Workers {
			compute += w.ComputeTime.Seconds()
			descheds += int64(w.Descheds)
		}
		values["sim.engine_windows"] += float64(r.Engine.Windows)
		values["sim.engine_cross_messages"] += float64(r.Engine.CrossMessages)
		values["sim.engine_null_publishes"] += float64(r.Engine.NullPublishes)
		values["sim.engine_mean_active"] += r.Engine.MeanActive()
	}
	var bytesTotal int64
	for _, r := range p.results {
		bytesTotal += r.Trace.TotalBytes()
	}
	values["trace.packets"] = float64(p.packets())
	values["trace.bytes"] = float64(bytesTotal)
	values["core.host_ns_per_packet"] = values["core.run_s"] * 1e9 / float64(p.packets())
	values["sim.virtual_s"] = virt
	values["ethernet.frames"] = float64(frames)
	values["ethernet.collisions"] = float64(colls)
	values["ethernet.max_backoff_hits"] = float64(backoff)
	values["fx.compute_virtual_s"] = compute
	values["fx.descheds"] = float64(descheds)
	values["farm.executed"] = float64(p.stats.Executed)
	values["farm.deduped"] = float64(p.stats.Deduped)
	values["farm.cache_hits"] = float64(p.stats.CacheHits)
	if p.stats.Submitted > 0 {
		values["farm.reuse_ratio"] = float64(p.stats.Submitted-p.stats.Executed) / float64(p.stats.Submitted)
	}
}

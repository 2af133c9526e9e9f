package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the serve workload's open-loop generator. Arrivals follow
// a Poisson schedule fixed in advance from the seed, and every operation
// is timed from the instant it was due, not from when it was sent: when
// the server or the generator falls behind, the wait shows up in the
// latencies and in the lateness (send time minus due time) instead of
// silently lowering the offered rate.

// Arrival kinds.
const (
	arriveJob    = iota // a user job: submit, poll to done, fetch the spectrum
	arriveQoS           // a catalog-backed admission followed by its release
	arriveModels        // a read of the fitted-model listing
)

// Side operations arrive at this fraction of the user-job rate each.
const sideOpFraction = 0.1

// newKeyEvery spaces the user jobs that introduce a key no earlier job
// used: every newKeyEvery-th job does, so simulations arrive as a steady
// stream in a fixed share of the jobs instead of a burst at the start
// of a step.
const newKeyEvery = 10

type arrival struct {
	due  time.Duration // offset from the step's start
	kind int
	key  int // user jobs: index into the step's key population
}

// schedule draws a step's arrivals: three independent Poisson streams,
// user jobs at rate per second and side operations at sideOpFraction of
// it. Every newKeyEvery-th user job introduces the population's next
// unused key; the others repeat a key already introduced, drawn from a
// Zipf(s) over the keys introduced so far, by rank, the first-introduced
// key being the most popular. It returns the arrivals in due order and
// how many keys they introduce.
func schedule(seed int64, rate float64, dur time.Duration, s float64) ([]arrival, int) {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	poisson := func(kind int, r float64) {
		for t := 0.0; ; {
			t += rng.ExpFloat64() / r
			due := time.Duration(t * float64(time.Second))
			if due >= dur {
				return
			}
			out = append(out, arrival{due: due, kind: kind})
		}
	}
	poisson(arriveJob, rate)
	introduced := 0
	var zipf *rand.Zipf
	for i := range out {
		if i%newKeyEvery == 0 {
			out[i].key = introduced
			introduced++
			// Ranks 0..introduced-1: the draw never leaves the keys
			// introduced so far, so the distribution is not folded.
			zipf = rand.NewZipf(rng, s, 1, uint64(introduced-1))
			continue
		}
		out[i].key = int(zipf.Uint64())
	}
	poisson(arriveQoS, rate*sideOpFraction)
	poisson(arriveModels, rate*sideOpFraction)
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out, introduced
}

// connCounter caps nothing itself; it counts the generator's open TCP
// connections so the benchmark can assert the transport's cap held.
type connCounter struct {
	open, peak atomic.Int64
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{Timeout: 5 * time.Second}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := c.open.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return &countedConn{Conn: conn, c: c}, nil
}

// generator drives one fxnetd over at most maxConns connections.
type generator struct {
	base  string
	hc    *http.Client
	conns *connCounter
	rec   *Recorder
}

func newGenerator(base string, maxConns int, rec *Recorder) *generator {
	cc := &connCounter{}
	tr := &http.Transport{
		DialContext:         cc.dial,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		MaxIdleConns:        maxConns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &generator{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, conns: cc, rec: rec}
}

func (g *generator) close() { g.hc.CloseIdleConnections() }

// opTiming is one HTTP exchange: when the caller issued it, when it got
// a connection (the moment it could be sent), and when the response
// body was fully read.
type opTiming struct {
	issued, sent, done time.Time
}

// do performs one request under a span named server.<op>.
func (g *generator) do(op, method, path string, body []byte, parent int64) (int, []byte, opTiming, error) {
	var tm opTiming
	span := g.rec.Begin("server."+op, parent)
	defer g.rec.End(span)
	tm.issued = time.Now()
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { tm.sent = time.Now() },
	})
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, g.base+path, rd)
	if err != nil {
		return 0, nil, tm, err
	}
	req.Header.Set("X-Client-ID", "fxbench")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return 0, nil, tm, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	tm.done = time.Now()
	if tm.sent.IsZero() {
		tm.sent = tm.issued
	}
	return resp.StatusCode, b, tm, err
}

// jobSample is one completed user job.
type jobSample struct {
	key       int
	due       time.Duration // offset of its due time in the step
	latency   time.Duration // due → spectrum received
	late      time.Duration // due → submit sent
	wallMs    float64       // the server's own wall_ms for the job
	overhead  time.Duration // submit sent → done seen, minus wall_ms
	polls     int
	packets   int64
	completed time.Time
}

// stepStats collects one step's outcomes.
type stepStats struct {
	t0       time.Time // the step's start; arrival offsets count from it
	mu       sync.Mutex
	jobs     []jobSample
	opMs     map[string][]float64 // service time (sent → done) per op
	failed   int64
	ops      int64
	grants   int64
	bodies   map[int][]byte // key → first spectrum body
	digests  map[int][32]byte
	problems []string
}

func newStepStats() *stepStats {
	return &stepStats{opMs: map[string][]float64{}, bodies: map[int][]byte{}, digests: map[int][32]byte{}}
}

func (st *stepStats) fail(format string, args ...any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.failed++
	if len(st.problems) < 10 {
		st.problems = append(st.problems, fmt.Sprintf(format, args...))
	}
}

func (st *stepStats) op(name string, tm opTiming) {
	st.mu.Lock()
	st.ops++
	st.opMs[name] = append(st.opMs[name], ms(tm.done.Sub(tm.sent)))
	st.mu.Unlock()
}

// runStep plays a schedule against the server and waits for every
// arrival to finish. keys holds the JSON submission body per key.
func (g *generator) runStep(sched []arrival, keys [][]byte) *stepStats {
	st := newStepStats()
	t0 := time.Now().Add(5 * time.Millisecond)
	st.t0 = t0
	var wg sync.WaitGroup
	for _, a := range sched {
		if d := time.Until(t0.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(a arrival) {
			defer wg.Done()
			g.play(a, t0, keys, st)
		}(a)
	}
	wg.Wait()
	return st
}

// runClosed plays sched's arrivals in order from loops workers, ignoring
// their due times: each worker issues its next arrival as soon as its
// last one finished, until dur has passed, so the daemon never waits for
// work. A job is due when its worker issues it.
func (g *generator) runClosed(sched []arrival, keys [][]byte, loops int, dur time.Duration) *stepStats {
	st := newStepStats()
	t0 := time.Now()
	st.t0 = t0
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loops; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || time.Since(t0) >= dur {
					return
				}
				a := sched[i]
				a.due = time.Since(t0)
				g.play(a, t0, keys, st)
			}
		}()
	}
	wg.Wait()
	return st
}

// play performs one arrival.
func (g *generator) play(a arrival, t0 time.Time, keys [][]byte, st *stepStats) {
	switch a.kind {
	case arriveJob:
		g.userJob(a, t0, keys[a.key], st)
	case arriveQoS:
		g.qosSession(st)
	case arriveModels:
		g.readModels(st)
	}
}

// pollDeadline bounds how long one user job may take before it counts
// as failed.
const pollDeadline = 60 * time.Second

func (g *generator) userJob(a arrival, t0 time.Time, body []byte, st *stepStats) {
	due := t0.Add(a.due)
	root := g.rec.Add("bench.job", 0, due, time.Time{})
	defer g.rec.End(root)

	code, resp, sub, err := g.do("submit", http.MethodPost, "/v1/runs", body, root)
	if err != nil || code != http.StatusAccepted {
		st.fail("submit: code %d err %v %s", code, err, resp)
		return
	}
	st.op("submit", sub)
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &acc); err != nil || acc.ID == "" {
		st.fail("submit: bad body %s", resp)
		return
	}
	var status struct {
		State  string  `json:"state"`
		WallMs float64 `json:"wall_ms"`
		Error  string  `json:"error"`
		Result *struct {
			Packets int64 `json:"packets"`
		} `json:"result"`
	}
	polls := 0
	backoff := 200 * time.Microsecond
	var doneSeen time.Time
	for {
		code, resp, tm, err := g.do("status", http.MethodGet, "/v1/runs/"+acc.ID, nil, root)
		polls++
		if err != nil || code != http.StatusOK || json.Unmarshal(resp, &status) != nil {
			st.fail("status %s: code %d err %v", acc.ID, code, err)
			return
		}
		st.op("status", tm)
		if status.State == "done" {
			doneSeen = tm.done
			break
		}
		if status.State == "failed" || status.State == "cancelled" {
			st.fail("job %s %s: %s", acc.ID, status.State, status.Error)
			return
		}
		if time.Since(due) > pollDeadline {
			st.fail("job %s not done after %v", acc.ID, pollDeadline)
			return
		}
		time.Sleep(backoff)
		backoff = min(backoff*3/2, 2*time.Millisecond)
	}
	code, spec, tm, err := g.do("spectrum", http.MethodGet, "/v1/runs/"+acc.ID+"/spectrum", nil, root)
	if err != nil || code != http.StatusOK {
		st.fail("spectrum %s: code %d err %v", acc.ID, code, err)
		return
	}
	st.op("spectrum", tm)
	end := tm.done
	sum := sha256.Sum256(spec)

	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.digests[a.key]; ok && prev != sum {
		st.failed++
		st.problems = append(st.problems, fmt.Sprintf("key %d served two different spectra", a.key))
		return
	}
	if _, ok := st.bodies[a.key]; !ok {
		st.bodies[a.key] = spec
		st.digests[a.key] = sum
	}
	s := jobSample{
		key: a.key, due: a.due, latency: end.Sub(due), late: sub.sent.Sub(due),
		wallMs: status.WallMs, polls: polls, completed: end,
		overhead: doneSeen.Sub(sub.sent) - time.Duration(status.WallMs*float64(time.Millisecond)),
	}
	if status.Result != nil {
		s.packets = status.Result.Packets
	}
	st.jobs = append(st.jobs, s)
}

// qosBody asks the broker for a catalog-backed admission of sor.
var qosBody = []byte(`{"program":"sor","source":"catalog","client":"fxbench"}`)

func (g *generator) qosSession(st *stepStats) {
	root := g.rec.Begin("bench.qos", 0)
	defer g.rec.End(root)
	code, resp, tm, err := g.do("negotiate", http.MethodPost, "/v1/qos/negotiate", qosBody, root)
	var out struct {
		Offer struct {
			ID int `json:"id"`
		} `json:"offer"`
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(resp, &out) != nil || out.Offer.ID == 0 {
		st.fail("negotiate: code %d err %v %s", code, err, resp)
		return
	}
	st.op("negotiate", tm)
	st.mu.Lock()
	st.grants++
	st.mu.Unlock()
	code, resp, tm, err = g.do("release", http.MethodDelete, fmt.Sprintf("/v1/qos/commitments/%d", out.Offer.ID), nil, root)
	if err != nil || code != http.StatusOK {
		st.fail("release %d: code %d err %v %s", out.Offer.ID, code, err, resp)
		return
	}
	st.op("release", tm)
}

func (g *generator) readModels(st *stepStats) {
	root := g.rec.Begin("bench.models", 0)
	defer g.rec.End(root)
	code, resp, tm, err := g.do("models", http.MethodGet, "/v1/models", nil, root)
	var out struct {
		Count int `json:"count"`
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(resp, &out) != nil || out.Count < len(fitPs) {
		st.fail("models: code %d err %v %s", code, err, resp)
		return
	}
	st.op("models", tm)
}

// stepSummary is what a finished step reports.
type stepSummary struct {
	cold, warm, all    []float64 // latency ms
	warmBlocks         [tailBlocks][]float64
	lateMs             []float64
	growing            bool
	achieved           float64 // completed user jobs per second
	failed, ops, jobs  int64
	packets            int64
	polls              int
	wallMs, overheadMs []float64
	grants             int64
}

// growthThreshold is how much later than at its start a step may send
// at its end before its backlog counts as growing.
const growthThreshold = 5 * time.Millisecond

func summarize(st *stepStats, dur time.Duration) stepSummary {
	s := stepSummary{failed: st.failed, ops: st.ops, grants: st.grants}
	var first, lastThird []float64
	var end time.Time
	// A job is warm when its key already had a result at its due time:
	// the cached path. The rest (each key's first job and any repeat
	// that joined its simulation in flight) took the simulated path.
	ready := map[int]time.Time{}
	for _, j := range st.jobs {
		if r, ok := ready[j.key]; !ok || j.completed.Before(r) {
			ready[j.key] = j.completed
		}
	}
	for _, j := range st.jobs {
		l := ms(j.latency)
		s.all = append(s.all, l)
		b := min(int(j.due*tailBlocks/dur), tailBlocks-1)
		if !st.t0.Add(j.due).After(ready[j.key]) {
			s.cold = append(s.cold, l)
		} else {
			s.warm = append(s.warm, l)
			s.warmBlocks[b] = append(s.warmBlocks[b], l)
		}
		s.lateMs = append(s.lateMs, ms(j.late))
		switch {
		case j.due < dur/3:
			first = append(first, ms(j.late))
		case j.due >= 2*dur/3:
			lastThird = append(lastThird, ms(j.late))
		}
		s.polls += j.polls
		s.packets += j.packets
		s.wallMs = append(s.wallMs, j.wallMs)
		s.overheadMs = append(s.overheadMs, ms(j.overhead))
		if j.completed.After(end) {
			end = j.completed
		}
	}
	s.jobs = int64(len(st.jobs))
	s.growing = len(first) > 0 && len(lastThird) > 0 &&
		median(lastThird)-median(first) > ms(growthThreshold)
	if span := max(end.Sub(st.t0), dur); span > 0 {
		s.achieved = float64(s.jobs) / span.Seconds()
	}
	return s
}

// tailBlocks is how many consecutive blocks of due time a step's tail
// percentiles are taken over.
const tailBlocks = 5

// tail is the median over a step's blocks of each block's q-quantile.
// One stall (a slow fsync, a descheduled VM) inflates the tail of the
// block it falls in, not the step's figure.
func tail(blocks [tailBlocks][]float64, q float64) float64 {
	var per []float64
	for _, b := range blocks {
		if len(b) > 0 {
			per = append(per, quantile(b, q))
		}
	}
	return median(per)
}

// meets reports whether a step counts toward max_jobs_per_s.
func (s stepSummary) meets(limitMs float64) bool {
	return s.failed == 0 && !s.growing && len(s.warm) > 0 && tail(s.warmBlocks, 0.99) <= limitMs
}

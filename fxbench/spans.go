package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of fxnet. Spans
// of one pass (batch) or one user job (serve) share Root, the ID of the
// span that started them.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Root   int64  `json:"root"`
	Name   string `json:"name"` // "<layer>.<call>", e.g. "core.Run"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the benchmark writes them out.
// A nil *Recorder records nothing, so untraced runs pay one nil check
// per call site.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder starts a recorder whose span times count from now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span under parent (0 for a new root) and returns its ID.
func (r *Recorder) Begin(name string, parent int64) int64 {
	if r == nil {
		return 0
	}
	return r.Add(name, parent, time.Now(), time.Time{})
}

// End closes the span id.
func (r *Recorder) End(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a span whose bounds are already known; a zero end leaves
// it open for End.
func (r *Recorder) Add(name string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	root := id
	if parent != 0 {
		root = r.spans[parent-1].Root
	}
	s := Span{ID: id, Parent: parent, Root: root, Name: name, Start: start.Sub(r.t0).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(r.t0).Nanoseconds()
	}
	r.spans = append(r.spans, s)
	return id
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// layerOf names the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval covered by at least one child. Children that overlap
// one another (parallel partitions, concurrent HTTP ops) are merged
// before subtracting, so shared time is not subtracted twice; a child
// running past its parent's end is clipped to the parent.
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of kids.
func covered(lo, hi int64, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// LayerSelfTimes sums self time by layer.
func LayerSelfTimes(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

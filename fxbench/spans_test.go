package main

import (
	"testing"
	"time"
)

func span(id, parent int64, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []Span{
		span(1, 0, "bench.pass", 0, 100),
		span(2, 1, "farm.RunBatch", 10, 70),
		span(3, 2, "core.Run", 20, 50),
		span(4, 1, "trace.encode", 80, 95),
	}
	self := SelfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 60 - 15, 2: 60 - 30, 3: 30, 4: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	layers := LayerSelfTimes(spans)
	if layers["bench"] != 25 || layers["farm"] != 30 || layers["core"] != 30 || layers["trace"] != 15 {
		t.Errorf("layer self times = %v", layers)
	}
	var sum time.Duration
	for _, d := range layers {
		sum += d
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

// Children running in parallel (engine partitions, concurrent HTTP ops)
// overlap; their shared interval must come off the parent once.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "core.Run", 0, 100),
		span(2, 1, "sim.partition", 10, 60),
		span(3, 1, "sim.partition", 30, 80),
		span(4, 1, "sim.partition", 40, 50),  // inside both others
		span(5, 1, "sim.partition", 90, 130), // runs past the parent
	}
	self := SelfTimes(spans)
	// Union of children within [0,100): [10,80) + [90,100) = 80.
	if self[1] != 20 {
		t.Errorf("parent self = %d, want 20", self[1])
	}
	if self[2] != 50 || self[3] != 50 || self[4] != 10 || self[5] != 40 {
		t.Errorf("children self = %v", self)
	}
}

func TestRecorderRootsAndNil(t *testing.T) {
	var off *Recorder
	if id := off.Begin("x.y", 0); id != 0 {
		t.Fatalf("nil recorder returned id %d", id)
	}
	off.End(0)
	if off.Spans() != nil {
		t.Fatal("nil recorder kept spans")
	}

	r := NewRecorder()
	root := r.Begin("bench.job", 0)
	op := r.Begin("server.submit", root)
	r.End(op)
	r.End(root)
	other := r.Begin("bench.job", 0)
	r.End(other)
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[1].Root != root || spans[1].Parent != root || spans[2].Root != other {
		t.Errorf("roots/parents wrong: %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
}

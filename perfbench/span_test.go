package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "phase", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 40): 30ms, not 20+20.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 40 * ms},
		// A child running past its parent's end counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild is not subtracted from the phase, only from b.
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 60 * ms, 2: 20 * ms, 3: 10 * ms, 4: 30 * ms, 5: 10 * ms} {
		if self[id] != want {
			t.Errorf("span %d self = %v, want %v", id, self[id], want)
		}
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	ms := time.Millisecond
	iv := [][2]time.Duration{{0, 30 * ms}, {20 * ms, 50 * ms}, {90 * ms, 150 * ms}}
	if got := covered(iv, 0, 100*ms); got != 60*ms {
		t.Errorf("covered = %v, want 60ms", got)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer("run-1")
	p := tr.Begin("phase", 0)
	c := tr.Begin("layer.call", p)
	tr.End(c)
	tr.End(p)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Run != "run-1" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("child %+v not inside parent %+v", spans[1], spans[0])
	}
	var nilTracer *Tracer
	if id := nilTracer.Begin("x", 0); id != 0 || nilTracer.End(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

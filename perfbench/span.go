package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Start and End are offsets from the
// tracer's start; Parent is 0 for a root span.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run writes them out. A nil
// *Tracer records nothing, so untraced code paths share the same calls.
type Tracer struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(run string) *Tracer { return &Tracer{run: run, t0: time.Now()} }

// Begin opens a span under parent (0 for a root) and returns its id.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// End closes span id and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.Dur()
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// covered is the total length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	var c [][2]time.Duration
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			c = append(c, [2]time.Duration{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, end time.Duration
	end = lo
	for _, x := range c {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers. Children may
// overlap one another (concurrent calls), so they are merged, not summed.
func selfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

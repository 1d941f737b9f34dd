package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"doppelganger/internal/server"
)

// minSamples is the fewest measured operations a timed run reports a
// median over, however short --seconds is.
const minSamples = 3

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median. sweepd-errors sets up only twice: each of its set-ups records
// the whole cell space (about 18 s on 2 vCPUs), and a third would not fit
// the benchmark's time budget.
const (
	setupRepeats       = 3
	sweepdSetupRepeats = 2
)

// bench is the state one invocation of the benchmark shares.
type bench struct {
	root    string // checkout root; programs run here
	bin     string // built programs
	work    string // run files inside the checkout
	seed    int64
	seconds time.Duration
	clients int
	golden  []byte // expected stdout of `experiments all`
}

// timedResult collects one timed run's samples and its correctness gate.
type timedResult struct {
	wall, cpu, rss []float64
	setup          float64
	setupN         int // set-ups setup is the median of
	attempted      int
	failures       []string
	notes          []metric // extra report lines (not part of the result JSON)
}

func (r *timedResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *timedResult) sample(u Usage) {
	r.wall = append(r.wall, u.Wall.Seconds())
	r.cpu = append(r.cpu, u.CPU.Seconds())
	r.rss = append(r.rss, u.PeakMB)
}

// interleave runs setups set-ups, each followed by its share of the
// measurement: measure repeats until that share of --seconds has passed
// and samples() has reached its share of minSamples. Spreading the samples
// over the whole run keeps one slow spell of a shared host from landing on
// all of them. setup and measure return false to stop the run.
func (b *bench) interleave(setups int, setup, measure func() bool, samples func() int) {
	slice := b.seconds / time.Duration(setups)
	for i := 1; i <= setups; i++ {
		if !setup() {
			return
		}
		want := (minSamples*i + setups - 1) / setups
		for start := time.Now(); samples() < want || time.Since(start) < slice; {
			if !measure() {
				return
			}
		}
	}
}

func (b *bench) experiments() string { return filepath.Join(b.bin, "experiments") }

// regen runs `experiments -quiet -scale 0.05 all` (plus extra flags) once,
// counting it as attempted and failing it unless it exits 0 and prints the
// golden tables byte for byte.
func (b *bench) regen(r *timedResult, extra ...string) (Usage, bool) {
	args := append([]string{"-quiet", "-scale", scaleArg}, extra...)
	args = append(args, "all")
	out, u, err := runProgram(b.root, b.experiments(), args...)
	r.attempted++
	switch {
	case err != nil:
		r.fail("%v", err)
		return u, false
	case !bytes.Equal(out, b.golden):
		r.fail("experiments %v: stdout differs from the golden tables", args)
		return u, false
	}
	return u, true
}

// regenLive: set-up is only process start-up, timed as the median of
// several runs that render the static Table 3 (no simulation); the
// measured operation is a whole live `all`.
func (b *bench) regenLive() *timedResult {
	r := &timedResult{}
	var starts []float64
	b.interleave(1, func() bool {
		for i := 0; i < 21; i++ {
			out, u, err := runProgram(b.root, b.experiments(), "-quiet", "-scale", scaleArg, "table3")
			r.attempted++
			if err != nil {
				r.fail("%v", err)
				return false
			}
			if len(out) == 0 || !bytes.Contains(b.golden, out) {
				r.fail("experiments table3: stdout is not the golden Table 3")
				return false
			}
			starts = append(starts, u.Wall.Seconds())
		}
		return true
	}, func() bool {
		u, ok := b.regen(r)
		if ok {
			r.sample(u)
		}
		return ok
	}, func() int { return len(r.wall) })
	r.setup, r.setupN = median(starts), len(starts)
	return r
}

// regenWarm: set-up records a trace directory with one cold `all` (every
// capture encoded, fsync'd and renamed into place), repeated for the
// median; the measured operation is a warm `all` over that directory,
// which opens and scrubs the store and replays every capture.
func (b *bench) regenWarm() *timedResult {
	r := &timedResult{}
	dir := filepath.Join(b.work, "regen-warm-traces")
	var setups []float64
	b.interleave(setupRepeats, func() bool {
		if err := os.RemoveAll(dir); err != nil {
			r.fail("%v", err)
			return false
		}
		u, ok := b.regen(r, "-trace-dir", dir)
		if ok {
			setups = append(setups, u.Wall.Seconds())
		}
		return ok
	}, func() bool {
		u, ok := b.regen(r, "-trace-dir", dir)
		if ok {
			r.sample(u)
		}
		return ok
	}, func() int { return len(r.wall) })
	r.setup, r.setupN = median(setups), len(setups)
	size, files := dirSize(dir)
	r.notes = append(r.notes, metric{"trace.capture_bytes", float64(size), "B", 1}, metric{"trace.captures", float64(files), "count", 1})
	return r
}

// sweepdErrors: set-up records the whole error-cell space with a sweepd on
// an empty trace directory (repeated for the median) and adds the measured
// servers' median start-to-ready time; each measured operation starts a
// fresh sweepd on the recorded directory, so the memo starts empty, and
// drives the seeded stream through it.
func (b *bench) sweepdErrors() *timedResult {
	r := &timedResult{}
	dir := filepath.Join(b.work, "sweepd-traces")
	streams := generateStream(b.seed, b.clients, streamRepeats)
	// Recording submits every cell once, as first submissions.
	record := generateStream(b.seed, b.clients, 0)
	firsts := 0
	for _, seq := range record {
		firsts += len(seq)
	}
	var records, readies, firstMS, repeatMS []float64
	var last streamStats
	b.interleave(sweepdSetupRepeats, func() bool {
		if err := os.RemoveAll(dir); err != nil {
			r.fail("%v", err)
			return false
		}
		start := time.Now()
		_, ok := b.serveStream(r, dir, record, firsts)
		records = append(records, time.Since(start).Seconds())
		return ok
	}, func() bool {
		s, ok := b.serveStream(r, dir, streams, firsts)
		if ok {
			r.wall = append(r.wall, s.res.wall.Seconds())
			r.cpu = append(r.cpu, s.usage.CPU.Seconds())
			r.rss = append(r.rss, s.usage.PeakMB)
			readies = append(readies, s.ready.Seconds())
			firstMS = append(firstMS, s.res.first...)
			repeatMS = append(repeatMS, s.res.repeat...)
			last = s.stats
		}
		return ok
	}, func() int { return len(r.wall) })
	r.setup, r.setupN = median(records)+median(readies), len(records)
	size, files := dirSize(dir)
	r.notes = append(r.notes,
		metric{"stream.first_submissions", float64(firsts), "count", 1},
		metric{"stream.repeats", float64(streamRepeats), "count", 1},
		latencyMetric("first", firstMS, 50),
		latencyMetric("first", firstMS, 0),
		latencyMetric("repeat", repeatMS, 50),
		latencyMetric("repeat", repeatMS, 0),
		metric{"trace.capture_bytes", float64(size), "B", 1},
		metric{"trace.captures", float64(files), "count", 1},
		metric{"trace.decoded_cache_hits", float64(last.dcHits), "count", 1},
		metric{"trace.decoded_cache_misses", float64(last.dcMisses), "count", 1},
		metric{"trace.decoded_cache_evictions", float64(last.dcEvictions), "count", 1},
	)
	return r
}

// served is one stream through one sweepd process.
type served struct {
	res   streamResult
	usage Usage         // the process's own
	ready time.Duration // process start to ready
	stats streamStats
}

// serveStream starts a sweepd on dir, drives streams through it, reads
// /v1/stats and stops it. Every submission counts as attempted; the reply
// gate and the stats gate (firsts computes, the rest memo hits, nothing
// shed, retried or hedged) record failures in r.
func (b *bench) serveStream(r *timedResult, dir string, streams [][]Submission, firsts int) (served, bool) {
	var s served
	sd, err := startSweepd(filepath.Join(b.bin, "sweepd"), b.root, dir, b.clients)
	r.attempted++
	if err != nil {
		r.fail("%v", err)
		return s, false
	}
	s.ready = sd.ready
	s.res = sd.runStream(streams, nil, 0)
	st, serr := sd.stats()
	s.usage, err = sd.stop()
	r.attempted += s.res.attempted
	r.failures = append(r.failures, s.res.failures...)
	if serr != nil || err != nil {
		r.fail("sweepd: stats %v, stop %v", serr, err)
		return s, false
	}
	s.stats = statsOf(st)
	if msg := s.stats.check(firsts, s.res.attempted-firsts); msg != "" {
		r.fail("sweepd: %s", msg)
		return s, false
	}
	return s, len(s.res.failures) == 0
}

// streamRepeats is how many re-submissions of earlier cells the
// sweepd-errors stream mixes in, across all clients.
const streamRepeats = 200

// streamStats is the slice of /v1/stats the gate and report read.
type streamStats struct {
	computes                      int64
	hits, shed, retries, hedges   uint64
	dcHits, dcMisses, dcEvictions uint64
}

func statsOf(st server.Stats) streamStats {
	ss := streamStats{computes: st.Computes, hits: st.CacheHits, shed: st.ShedRate + st.ShedQueue,
		retries: st.Retries, hedges: st.Hedges}
	if dc := st.DecodedCache; dc != nil {
		ss.dcHits, ss.dcMisses, ss.dcEvictions = dc.Hits, dc.Misses, dc.Evictions
	}
	return ss
}

// check enforces the service-path gate: one compute per first submission,
// one memo hit per repeat, and no request shed, retried or hedged. It
// returns "" when the gate holds.
func (s streamStats) check(firsts, repeats int) string {
	if s.computes != int64(firsts) || s.hits != uint64(repeats) || s.shed != 0 || s.retries != 0 || s.hedges != 0 {
		return fmt.Sprintf("computes %d (want %d), cache hits %d (want %d), shed %d, retries %d, hedges %d (want 0)",
			s.computes, firsts, s.hits, repeats, s.shed, s.retries, s.hedges)
	}
	return ""
}

// latencyMetric reports a latency percentile of samples as
// "<prefix>_p<p>_ms". p == 0 asks for the highest percentile with at least
// ten samples beyond it (NaN when there are too few samples for any).
func latencyMetric(prefix string, samples []float64, p float64) metric {
	if p == 0 {
		q, ok := tailPercentile(len(samples), 10)
		if !ok {
			return metric{prefix + "_tail_ms", math.NaN(), "ms", len(samples)}
		}
		p = q
	}
	return metric{fmt.Sprintf("%s_p%g_ms", prefix, p), percentile(samples, p), "ms", len(samples)}
}

// dirSize sums the sizes of the capture files directly in dir.
func dirSize(dir string) (bytes int64, files int) {
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() && filepath.Ext(e.Name()) == ".dgt" {
			bytes += info.Size()
			files++
		}
	}
	return bytes, files
}

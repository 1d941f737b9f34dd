package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"doppelganger/internal/core"
	"doppelganger/internal/faults"
	"doppelganger/internal/metrics"
	"doppelganger/internal/quality"
	"doppelganger/internal/server"
	"doppelganger/internal/stats"
	"doppelganger/internal/sweep"
	"doppelganger/internal/timesim"
	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
)

// The traced run drives each layer's public entry points from outside, in
// this process, at the scale and core count sweep.Runner uses, and records
// a span around every call. Layer spans are named "<module>.<call>";
// phase spans (no dot) group them. A layer's self time is its span minus
// the union of its children.

const (
	cores         = 4
	snapshotEvery = 20000 // sweep.NewRunner's SnapshotEvery
	batchLanes    = 8
	hitRepeats    = 2000 // memo-hit calls averaged per metric
)

// perLayerNames are the metrics every traced run emits, in report order.
var perLayerNames = []string{
	"funcsim.live_ns_per_access", "funcsim.kernel_gang_ns_per_access",
	"funcsim.replay1_ns_per_access", "funcsim.replay8_ns_per_lane_access",
	"funcsim.accesses", "core.llc_hits", "core.llc_misses", "coherence.back_invalidations",
	"trace.encode_MBps", "trace.decode_full_MBps", "trace.decode_output_ms",
	"timesim.ns_per_access", "timesim.busy_s", "timesim.sim_cycles", "stats.observe_s",
	"sweep.live_prewarm_s", "sweep.live_render_s", "trace.capture_bytes", "trace.scrub_s",
	"sweep.warm_prewarm_s", "sweep.warm_render_s", "sweep.memo_hit_us",
	"server.open_s", "server.first_p50_ms", "server.first_p95_ms", "server.repeat_p50_ms",
	"server.submit_hit_us", "server.http_overhead_ms",
	"server.computes", "server.cache_hits", "server.shed", "server.retries", "server.hedges",
	"trace.decoded_cache_hit_ratio", "trace.decoded_cache_evictions",
	"bench.traced_wall_s", "bench.layer_span_coverage",
	"bench.phase_wall_s", "bench.untraced_wall_s", "bench.traced_over_untraced",
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	*bench
	workload string
	ctx      context.Context
	tr       *Tracer
	out      []metric
	failures []string
	// ops holds, per workload, the traced in-process time of the
	// operation a timed run of that workload measures.
	ops map[string]time.Duration
}

func (t *tracedRun) fail(format string, args ...any) {
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

func (t *tracedRun) add(name string, v float64, unit string) {
	t.out = append(t.out, metric{name, v, unit, 1})
}

// simCounts are the simulated statistics a traced run reads from the
// registries it passes in; they must repeat exactly from run to run.
type simCounts struct {
	Accesses      uint64 `json:"funcsim.accesses"`
	LLCHits       uint64 `json:"core.llc_hits"`
	LLCMisses     uint64 `json:"core.llc_misses"`
	BackInvals    uint64 `json:"coherence.back_invalidations"`
	TimesimCycles uint64 `json:"timesim.sim_cycles"`
}

func countsOf(reg *metrics.Registry) simCounts {
	reads, hits := reg.CounterValue("funcsim.llc.reads"), reg.CounterValue("funcsim.llc.hits")
	return simCounts{
		Accesses:   reg.CounterValue("funcsim.loads") + reg.CounterValue("funcsim.stores"),
		LLCHits:    hits,
		LLCMisses:  reads - hits,
		BackInvals: reg.CounterValue("coherence.back_invalidations"),
	}
}

// runTraced performs the traced run and returns its per-layer metrics.
func (b *bench) runTraced(workload string) ([]metric, []string, []Span) {
	t := &tracedRun{bench: b, workload: workload, ctx: context.Background(),
		tr: newTracer(fmt.Sprintf("%s/seed=%d", workload, b.seed)), ops: map[string]time.Duration{}}
	start := time.Now()
	steps := []struct {
		name string
		fn   func(parent int) error
	}{
		{"probes", t.probes},
		{"regen-live", t.regenLivePhase},
		{"regen-warm", t.regenWarmPhase},
		{"sweepd-errors", t.sweepdPhase},
	}
	for _, s := range steps {
		id := t.tr.Begin(s.name, 0)
		err := s.fn(id)
		t.tr.End(id)
		if err != nil {
			t.fail("%s: %v", s.name, err)
			break
		}
	}
	traced := time.Since(start)
	spans := t.tr.Spans()
	if len(t.failures) == 0 {
		t.summarize(spans, traced)
	}
	return t.out, t.failures, spans
}

// timeLayer runs fn inside a span and returns its duration.
func (t *tracedRun) timeLayer(name string, parent int, fn func(id int) error) (time.Duration, error) {
	id := t.tr.Begin(name, parent)
	err := fn(id)
	return t.tr.End(id), err
}

// probes walks every benchmark's precise baseline through each layer in
// turn: the live run (recording, with the snapshot analyzer attached),
// capture encode, full and output-only decode, 1-lane and 8-lane hierarchy
// replay, and the timing model.
func (t *tracedRun) probes(parent int) error {
	dir := filepath.Join(t.work, "traced-probe")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var (
		live, observe, encode, decFull, decOut, rep1, rep8, tsim time.Duration
		accesses, cycles, bytesOut, captures                     uint64
	)
	liveReg, repReg := metrics.NewRegistry(), metrics.NewRegistry()
	for _, f := range workloads.All() {
		an := stats.NewAnalyzer(stats.AnalyzerConfig{
			Thresholds: sweep.Thresholds, ThresholdEvery: 8, ThresholdSampleCap: 512,
			MapSpaces: sweep.MapSpaces, Comparators: true, CompareM: 14,
		})
		builder := workloads.BaselineBuilder(2<<20, 16)
		var run *workloads.RunResult
		d, err := t.timeLayer("funcsim.live", parent, func(id int) error {
			var err error
			run, err = workloads.RunFunctionalContext(t.ctx, f.New(t.scale()), builder, workloads.RunOptions{
				Cores: cores, Record: true, SnapshotEvery: snapshotEvery, Metrics: liveReg,
				SnapshotFn: func(llc core.LLC) {
					sid := t.tr.Begin("stats.observe", id)
					an.Observe(llc)
					observe += t.tr.End(sid)
				},
			})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s live: %w", f.Name, err)
		}
		live += d
		n := uint64(run.Recorder.Len())
		accesses += n
		ident := workloads.CaptureIdent("base/"+f.Name, t.scale(), cores, "")
		path := workloads.CapturePath(dir, ident)
		d, err = t.timeLayer("trace.encode", parent, func(int) error {
			c, err := workloads.CaptureOf(run, trace.FileHeader{Benchmark: f.Name, Scale: t.scale(), Cores: cores, ConfigKey: ident})
			if err != nil {
				return err
			}
			return c.WriteFileFS(trace.OS, path)
		})
		if err != nil {
			return fmt.Errorf("%s encode: %w", f.Name, err)
		}
		encode += d
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		bytesOut += uint64(info.Size())
		captures++
		var capt *trace.Capture
		d, err = t.timeLayer("trace.decode_full", parent, func(int) error {
			var err error
			capt, err = workloads.LoadCapture(path, ident, cores)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s decode: %w", f.Name, err)
		}
		decFull += d
		d, err = t.timeLayer("trace.decode_output", parent, func(int) error {
			c, err := workloads.LoadCaptureOutput(path, ident, cores)
			if err == nil && !floatsEqual(c.Output, run.Output) {
				err = errors.New("output-only decode differs from the live output")
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s decode output: %w", f.Name, err)
		}
		decOut += d
		d, err = t.timeLayer("funcsim.replay1", parent, func(int) error {
			res, err := workloads.ReplayFunctionalContext(t.ctx, f.New(t.scale()), capt, builder, workloads.RunOptions{Cores: cores, Metrics: repReg})
			if err == nil && !floatsEqual(res.Output, run.Output) {
				err = errors.New("replayed output differs from the live output")
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s replay: %w", f.Name, err)
		}
		rep1 += d
		specs := make([]workloads.ReplaySpec, batchLanes)
		for i := range specs {
			specs[i] = workloads.ReplaySpec{LLCB: builder, Opt: workloads.RunOptions{Cores: cores}}
		}
		d, err = t.timeLayer("funcsim.replay8", parent, func(int) error {
			res, err := workloads.ReplayFunctionalBatch(t.ctx, f.New(t.scale()), capt, specs)
			for i := 0; err == nil && i < len(res); i++ {
				if !floatsEqual(res[i].Output, run.Output) {
					err = fmt.Errorf("batched lane %d output differs from the live output", i)
				}
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s batch replay: %w", f.Name, err)
		}
		rep8 += d
		var tres *timesim.Result
		d, err = t.timeLayer("timesim.run", parent, func(int) error {
			cfg := timesim.DefaultConfig()
			cfg.Cores = cores
			var err error
			tres, err = timesim.RunContext(t.ctx, capt.Recorder, capt.InitialMem, capt.Annotations, builder, cfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s timing: %w", f.Name, err)
		}
		tsim += d
		cycles += tres.Cycles
	}
	liveCounts := countsOf(liveReg)
	liveCounts.TimesimCycles = cycles
	repCounts := countsOf(repReg)
	if repCounts.Accesses != liveCounts.Accesses || repCounts.LLCHits != liveCounts.LLCHits ||
		repCounts.LLCMisses != liveCounts.LLCMisses || repCounts.BackInvals != liveCounts.BackInvals {
		return fmt.Errorf("replayed counts %+v differ from live counts %+v", repCounts, liveCounts)
	}
	if err := t.checkRepeatable(liveCounts); err != nil {
		return err
	}
	ns := func(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(n) }
	liveSelf := live - observe
	t.add("funcsim.live_ns_per_access", ns(liveSelf, accesses), "ns")
	t.add("funcsim.kernel_gang_ns_per_access", ns(liveSelf-rep1, accesses), "ns")
	t.add("funcsim.replay1_ns_per_access", ns(rep1, accesses), "ns")
	t.add("funcsim.replay8_ns_per_lane_access", ns(rep8, accesses*batchLanes), "ns")
	t.add("funcsim.accesses", float64(liveCounts.Accesses), "count")
	t.add("core.llc_hits", float64(liveCounts.LLCHits), "count")
	t.add("core.llc_misses", float64(liveCounts.LLCMisses), "count")
	t.add("coherence.back_invalidations", float64(liveCounts.BackInvals), "count")
	mb := float64(bytesOut) / 1e6
	t.add("trace.encode_MBps", mb/encode.Seconds(), "MB/s")
	t.add("trace.decode_full_MBps", mb/decFull.Seconds(), "MB/s")
	t.add("trace.decode_output_ms", decOut.Seconds()*1e3/float64(captures), "ms")
	t.add("timesim.ns_per_access", ns(tsim, accesses), "ns")
	t.add("timesim.busy_s", tsim.Seconds(), "s")
	t.add("timesim.sim_cycles", float64(liveCounts.TimesimCycles), "count")
	t.add("stats.observe_s", observe.Seconds(), "s")
	return nil
}

// checkRepeatable compares the simulated counts with those an earlier
// traced run in this checkout wrote, and records them for the next one.
func (t *tracedRun) checkRepeatable(c simCounts) error {
	path := filepath.Join(t.work, "simulated-counts.json")
	if b, err := os.ReadFile(path); err == nil {
		var prev simCounts
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if prev != c {
			return fmt.Errorf("simulated counts %+v differ from an earlier traced run's %+v", c, prev)
		}
		return nil
	}
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// floatsEqual reports whether a and b are bit-identical.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (t *tracedRun) scale() float64 { return goldenScale }

// render renders every table of `experiments all` in the CLI's order and
// format.
func render(r *sweep.Runner) (string, error) {
	var b strings.Builder
	var firstErr error
	emit := func(err error, ts ...*sweep.Table) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for _, tb := range ts {
			if tb != nil {
				fmt.Fprintln(&b, tb.Format())
			}
		}
	}
	t2, err := r.Table2()
	emit(err, t2)
	f2, err := r.Fig2()
	emit(err, f2)
	f7, err := r.Fig7()
	emit(err, f7)
	f8, err := r.Fig8()
	emit(err, f8)
	a9, b9, err := r.Fig9()
	emit(err, a9, b9)
	a10, b10, err := r.Fig10()
	emit(err, a10, b10)
	a11, b11, err := r.Fig11()
	emit(err, a11, b11)
	f12, err := r.Fig12()
	emit(err, f12)
	emit(nil, r.Fig13())
	a14, b14, c14, err := r.Fig14()
	emit(err, a14, b14, c14)
	emit(nil, r.Table3())
	return b.String(), firstErr
}

// regenerate prewarms the full grid and renders it under two spans, and
// checks the tables against the goldens. It returns the time both took.
func (t *tracedRun) regenerate(r *sweep.Runner, parent int, metricPrefix string) (time.Duration, error) {
	pre, err := t.timeLayer("sweep.prewarm", parent, func(int) error {
		return r.PrewarmContext(t.ctx, sweep.FullGrid(false))
	})
	if err != nil {
		return 0, err
	}
	var out string
	ren, err := t.timeLayer("sweep.render", parent, func(int) error {
		var err error
		out, err = render(r)
		return err
	})
	if err != nil {
		return 0, err
	}
	if out != string(t.golden) {
		return 0, errors.New("rendered tables differ from the goldens")
	}
	if metricPrefix != "" {
		t.add(metricPrefix+"prewarm_s", pre.Seconds(), "s")
		t.add(metricPrefix+"render_s", ren.Seconds(), "s")
	}
	return pre + ren, nil
}

func (t *tracedRun) regenLivePhase(parent int) error {
	d, err := t.regenerate(sweep.NewRunner(t.scale()), parent, "sweep.live_")
	t.ops["regen-live"] = d
	return err
}

// regenWarmPhase records a trace directory with a cold runner, then opens
// and scrubs it as the CLI does and regenerates from it with a fresh one.
func (t *tracedRun) regenWarmPhase(parent int) error {
	dir := filepath.Join(t.work, "traced-regen")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	cold := sweep.NewRunner(t.scale())
	cold.TraceDir = dir
	rec := t.tr.Begin("record", parent)
	_, err := t.regenerate(cold, rec, "")
	t.tr.End(rec)
	if err != nil {
		return fmt.Errorf("cold: %w", err)
	}
	size, _ := dirSize(dir)
	t.add("trace.capture_bytes", float64(size), "B")
	var st *trace.Store
	scrub, err := t.timeLayer("trace.scrub", parent, func(int) error {
		var err error
		st, err = trace.OpenStore(trace.OS, dir, trace.VerifyOpen)
		return err
	})
	if err != nil {
		return err
	}
	defer st.Close()
	t.add("trace.scrub_s", scrub.Seconds(), "s")
	warm := sweep.NewRunner(t.scale())
	warm.TraceDir = dir
	d, err := t.regenerate(warm, parent, "sweep.warm_")
	if err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	t.ops["regen-warm"] = scrub + d
	// Every cell is memoized now; a repeat lookup is a memo hit.
	d, err = t.timeLayer("sweep.memo_hit", parent, func(int) error {
		for i := 0; i < hitRepeats; i++ {
			if _, err := warm.SplitErrorContext(t.ctx, "kmeans", sweep.BaseMapBits, sweep.BaseDataFrac); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.add("sweep.memo_hit_us", d.Seconds()*1e6/hitRepeats, "us")
	return nil
}

// serverConfig mirrors sweepd's flag defaults plus the benchmark's
// admission setting (see sweepdArgs).
func serverConfig(dir string) server.Config {
	return server.Config{
		Scale: goldenScale, Cores: cores,
		AdmitRate: 1e9, AdmitBurst: 1e9,
		Breaker:   quality.BreakerConfig{Budget: 0.5},
		FaultSeed: 1, FaultModel: faults.BitFlip,
		QualityBudget: sweep.DefaultQualityBudget, QualitySeed: 1, CanaryRate: sweep.DefaultCanaryRate,
		TraceDir: dir, TraceVerify: trace.VerifyOpen,
		DecodedCacheMB: 256, ReplayBatch: 8,
	}
}

// inProcess serves a server.Server over loopback HTTP from this process.
type inProcess struct {
	srv *server.Server
	hs  *http.Server
	cl  *client
	wg  sync.WaitGroup
}

func serveInProcess(cfg server.Config, conns int) (*inProcess, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	p := &inProcess{srv: srv, hs: &http.Server{Handler: srv.Handler()}, cl: newClient("http://"+ln.Addr().String(), conns)}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.hs.Serve(ln)
	}()
	return p, nil
}

func (p *inProcess) close() {
	p.cl.http.CloseIdleConnections()
	p.hs.Close()
	p.wg.Wait()
	p.srv.Close()
}

// sweepdPhase records the error-cell space through one in-process server,
// then opens a fresh one over the recorded directory and drives the seeded
// stream through its HTTP front door, one span per submission.
func (t *tracedRun) sweepdPhase(parent int) error {
	dir := filepath.Join(t.work, "traced-sweepd")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	streams := generateStream(t.seed, t.clients, streamRepeats)
	record := generateStream(t.seed, t.clients, 0)
	firsts := 0
	for _, seq := range record {
		firsts += len(seq)
	}
	rec := t.tr.Begin("record", parent)
	p, err := serveInProcess(serverConfig(dir), t.clients)
	if err != nil {
		return err
	}
	res := p.cl.runStream(record, t.tr, rec)
	p.close()
	t.tr.End(rec)
	if len(res.failures) > 0 {
		return fmt.Errorf("recording: %s", res.failures[0])
	}
	var open time.Duration
	open, err = t.timeLayer("server.open", parent, func(int) error {
		var err error
		p, err = serveInProcess(serverConfig(dir), t.clients)
		return err
	})
	if err != nil {
		return err
	}
	defer p.close()
	t.add("server.open_s", open.Seconds(), "s")
	res = p.cl.runStream(streams, t.tr, parent)
	if len(res.failures) > 0 {
		return fmt.Errorf("stream: %d failed, first: %s", len(res.failures), res.failures[0])
	}
	t.ops["sweepd-errors"] = res.wall
	st, err := p.cl.stats()
	if err != nil {
		return err
	}
	ss := statsOf(st)
	if msg := ss.check(firsts, res.attempted-firsts); msg != "" {
		return errors.New(msg)
	}
	hit := streams[0][0].Cell
	d, err := t.timeLayer("server.submit_hit", parent, func(int) error {
		for i := 0; i < hitRepeats; i++ {
			r, err := p.srv.Submit(t.ctx, hit)
			if err == nil && !r.Cached {
				err = errors.New("in-process submit of a memoized cell computed")
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	hitUS := d.Seconds() * 1e6 / hitRepeats
	repeatP50 := percentile(res.repeat, 50)
	t.add("server.first_p50_ms", percentile(res.first, 50), "ms")
	t.add("server.first_p95_ms", percentile(res.first, 95), "ms")
	t.add("server.repeat_p50_ms", repeatP50, "ms")
	t.add("server.submit_hit_us", hitUS, "us")
	t.add("server.http_overhead_ms", repeatP50-hitUS/1e3, "ms")
	t.add("server.computes", float64(st.Computes), "count")
	t.add("server.cache_hits", float64(st.CacheHits), "count")
	t.add("server.shed", float64(ss.shed), "count")
	t.add("server.retries", float64(st.Retries), "count")
	t.add("server.hedges", float64(st.Hedges), "count")
	if dc := st.DecodedCache; dc != nil {
		t.add("trace.decoded_cache_hit_ratio", float64(dc.Hits)/float64(max(dc.Hits+dc.Misses, 1)), "1")
		t.add("trace.decoded_cache_evictions", float64(dc.Evictions), "count")
	} else {
		return errors.New("/v1/stats has no decoded_cache section")
	}
	return nil
}

// summarize adds the run-level metrics: traced wall time, how much of it
// the layer spans cover, and the workload's in-process phase against one
// untraced run of the same operation through the program itself.
func (t *tracedRun) summarize(spans []Span, traced time.Duration) {
	var layers [][2]time.Duration
	for _, s := range spans {
		if strings.Contains(s.Name, ".") {
			layers = append(layers, [2]time.Duration{s.Start, s.End})
		}
	}
	t.add("bench.traced_wall_s", traced.Seconds(), "s")
	t.add("bench.layer_span_coverage", float64(covered(layers, 0, traced))/float64(traced), "1")
	phase, untraced, err := t.untracedPair()
	if err != nil {
		t.fail("untraced %s: %v", t.workload, err)
		return
	}
	t.add("bench.phase_wall_s", phase.Seconds(), "s")
	t.add("bench.untraced_wall_s", untraced.Seconds(), "s")
	t.add("bench.traced_over_untraced", phase.Seconds()/untraced.Seconds(), "1")
}

// untracedPair returns the traced in-process wall time of the workload's
// measured operation and the wall time of one untraced run of it through
// the program, as a timed run measures it.
func (t *tracedRun) untracedPair() (phase, untraced time.Duration, err error) {
	phase = t.ops[t.workload]
	r := &timedResult{}
	var u Usage
	ok := true
	switch t.workload {
	case "regen-live":
		u, ok = t.regen(r)
	case "regen-warm":
		u, ok = t.regen(r, "-trace-dir", filepath.Join(t.work, "traced-regen"))
	default:
		sd, err := startSweepd(filepath.Join(t.bin, "sweepd"), t.root, filepath.Join(t.work, "traced-sweepd"), t.clients)
		if err != nil {
			return 0, 0, err
		}
		res := sd.runStream(generateStream(t.seed, t.clients, streamRepeats), nil, 0)
		_, err = sd.stop()
		if err == nil && len(res.failures) > 0 {
			err = errors.New(res.failures[0])
		}
		return phase, res.wall, err
	}
	if !ok {
		return 0, 0, errors.New(strings.Join(r.failures, "; "))
	}
	return phase, u.Wall, nil
}

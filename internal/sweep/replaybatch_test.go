package sweep

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"doppelganger/internal/metrics"
	"doppelganger/internal/trace"
)

// The batched-replay differential suite: a Prewarm with single-pass
// multi-config replay enabled must leave exactly the bits a sequential
// sweep computes — quality outcomes with their full breaker histories
// included — while actually batching identical streams and sharing decoded
// captures across runners.

// TestBatchedQualityMatchesSequential runs the guarded quality cells three
// ways: live-recording cold, batched over the warm directory through the
// engine, and sequentially over the same warm directory through a second
// runner sharing the first's decoded cache. All three must agree bit for
// bit, the batch planner must have actually fused lanes, and the shared
// cache must have served cross-runner hits.
func TestBatchedQualityMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	only := []string{"kmeans"}
	// Rates tiny enough that no fault ever fires: within one organization
	// the recorded streams are byte-identical, so the planner has real
	// groups to fuse (the general case degrades to singletons, which keep
	// the sequential path).
	rates := []float64{1e-9, 1e-10}
	setup := func(r *Runner) *Runner {
		r.FaultSeed = 42
		r.QualitySeed = 7
		r.FaultRates = rates
		return r
	}
	collect := func(r *Runner) map[string]QualityOutcome {
		out := map[string]QualityOutcome{}
		for _, name := range only {
			for _, org := range GuardedOrgs {
				for _, rate := range rates {
					q, err := r.QualityError(name, org, rate)
					if err != nil {
						t.Fatal(err)
					}
					out[fmt.Sprintf("%s/%s/%g", name, org, rate)] = *q
				}
			}
		}
		return out
	}

	// Cold: live runs record the quality captures (and the baseline).
	want := collect(setup(traceRunner(0.02, dir, only...)))

	// Warm batched: the engine's quality-batch task replays fused groups;
	// the per-cell reads below come from the primed memo.
	var log strings.Builder
	b := setup(traceRunner(0.02, dir, only...))
	b.DecodedCache = trace.NewDecodedCache(256 << 20)
	b.ReplayBatch = 8
	b.Metrics = metrics.NewRegistry()
	b.Log = &log
	if err := b.Prewarm(Grid{Quality: true}); err != nil {
		t.Fatal(err)
	}
	got := collect(b)
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s missing from batched sweep", k)
		}
		if !qualityOutcomeEqual(w, g) {
			t.Errorf("%s: batched diverged from live:\nlive %+v\nbatched %+v", k, w, g)
		}
	}
	if !strings.Contains(log.String(), "batched guarded replay") {
		t.Error("batch planner never fused a group (identical streams went sequential)")
	}
	if n := b.Metrics.CounterValue("trace.replays"); n < uint64(len(want)) {
		t.Errorf("batched sweep counted %d replays, want at least %d", n, len(want))
	}

	// Sequential over the shared decoded cache: same bits, and the captures
	// the batched runner decoded are served from memory.
	s := setup(traceRunner(0.02, dir, only...))
	s.DecodedCache = b.DecodedCache
	seq := collect(s)
	for k, w := range want {
		if !qualityOutcomeEqual(w, seq[k]) {
			t.Errorf("%s: shared-cache sequential diverged from live:\nlive %+v\ngot %+v", k, w, seq[k])
		}
	}
	if st := b.DecodedCache.Stats(); st.Hits == 0 {
		t.Errorf("shared decoded cache served no hits across runners: %+v", st)
	}
}

// TestBatchedErrorCellsMatchSequential covers the warm error-only sweep
// under a decoded cache: split/uni/fault cells and the baseline output they
// score against all take the output-only capture read, so the decoded cache
// stays empty and no capture is fully decoded, yet every bit matches the
// live values. A cell that replays through a hierarchy — the baseline
// artifacts — is what fills the cache.
func TestBatchedErrorCellsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cells := func(r *Runner) map[string]uint64 {
		r.FaultSeed = 42
		out := map[string]uint64{}
		s, err := r.SplitError("kmeans", BaseMapBits, BaseDataFrac)
		if err != nil {
			t.Fatal(err)
		}
		out["split"] = math.Float64bits(s)
		u, err := r.UnifiedError("kmeans", BaseMapBits, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		out["uni"] = math.Float64bits(u)
		fv, err := r.FaultError("kmeans", "doppel", 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		out["fault"] = math.Float64bits(fv)
		return out
	}
	lr := traceRunner(0.02, "", "kmeans")
	live := cells(lr)
	cold := cells(traceRunner(0.02, dir, "kmeans"))
	w := traceRunner(0.02, dir, "kmeans")
	w.DecodedCache = trace.NewDecodedCache(256 << 20)
	w.Metrics = metrics.NewRegistry()
	warm := cells(w)
	for k, v := range live {
		if cold[k] != v {
			t.Errorf("%s: cold %x != live %x", k, cold[k], v)
		}
		if warm[k] != v {
			t.Errorf("%s: decoded-cache warm %x != live %x", k, warm[k], v)
		}
	}
	// The warm pass must not have executed a single kernel, and every
	// capture it read — three cells plus the baseline — took the
	// output-only read, bypassing the decoded cache.
	if n := w.Metrics.CounterValue("trace.records"); n != 0 {
		t.Errorf("warm pass re-recorded %d captures", n)
	}
	if n := w.Metrics.CounterValue("trace.loads.full"); n != 0 {
		t.Errorf("output-only cells fully decoded %d captures", n)
	}
	if n := w.Metrics.CounterValue("trace.loads.output"); n != 4 {
		t.Errorf("trace.loads.output = %d, want 4 (3 cells + baseline)", n)
	}
	if st := w.DecodedCache.Stats(); st.Entries != 0 || st.Hits+st.Misses != 0 {
		t.Errorf("output-only pass touched the decoded cache: %+v", st)
	}

	// The baseline artifacts replay the baseline capture through a
	// hierarchy: one full decode, which the cache keeps.
	a, err := w.Baseline("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	la, err := lr.Baseline("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	for i := range la.run.Output {
		if math.Float64bits(a.run.Output[i]) != math.Float64bits(la.run.Output[i]) {
			t.Fatalf("replayed baseline output[%d] = %v, live %v", i, a.run.Output[i], la.run.Output[i])
		}
	}
	if n := w.Metrics.CounterValue("trace.loads.full"); n != 1 {
		t.Errorf("baseline replay: trace.loads.full = %d, want 1", n)
	}
	if st := w.DecodedCache.Stats(); st.Entries == 0 {
		t.Errorf("decoded cache empty after a baseline replay: %+v", st)
	}
}

// TestBaselineScoreFromCaptureWithoutCache: on a warm directory with no
// decoded cache, an error cell scores against the baseline capture's output
// section — the baseline artifacts (replay, analyzer, timing) are never
// computed — and the score is bit-identical to the live one.
func TestBaselineScoreFromCaptureWithoutCache(t *testing.T) {
	dir := t.TempDir()
	live, err := traceRunner(0.02, "", "kmeans").SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traceRunner(0.02, dir, "kmeans").SplitError("kmeans", BaseMapBits, BaseDataFrac); err != nil {
		t.Fatal(err)
	}
	w := traceRunner(0.02, dir, "kmeans")
	w.Metrics = metrics.NewRegistry()
	got, err := w.SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(live) {
		t.Errorf("warm split error %x != live %x", math.Float64bits(got), math.Float64bits(live))
	}
	if n := w.base.Computes(); n != 0 {
		t.Errorf("baseline artifacts computed %d times, want 0", n)
	}
	if full, out := w.Metrics.CounterValue("trace.loads.full"), w.Metrics.CounterValue("trace.loads.output"); full != 0 || out != 2 {
		t.Errorf("loads full=%d output=%d, want 0 and 2 (cell + baseline)", full, out)
	}
}

package sweep

import (
	"context"
	"fmt"
	"math"

	"doppelganger/internal/faults"
	"doppelganger/internal/metrics"
	"doppelganger/internal/quality"
	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
)

// Single-pass multi-config replay: the quality sweep's guarded cells are the
// only grid cells that must rebuild a full hierarchy on a warm trace cache
// (their outcome needs the guard's breaker history, not just an output
// vector), so they pay one stream decode and one cursor walk per cell. When
// several cells' captures carry byte-identical access streams — certified by
// the stream digest, which hashes every recorded address, value, size and
// work gap but not the cell's identity header — one walk can drive all of
// them: each record fans out to per-cell hierarchies with private stores,
// LLCs, fault injectors and guards. Lane i evolves bit-identically to
// replaying its own capture alone, so the memoized outcomes are exactly the
// sequential path's.

// batchEnabled reports whether the single-pass multi-config replay path is
// on: it needs a batch width, a warm trace directory to replay from, a
// decoded-capture cache to share streams through, and not to be in forced
// re-record mode.
func (r *Runner) batchEnabled() bool {
	return r.ReplayBatch > 1 && r.TraceDir != "" && r.DecodedCache != nil && !r.TraceCapture
}

// batchCell is one guarded quality cell a batched replay can serve.
type batchCell struct {
	org  string
	rate float64
	key  string
	cap  *trace.Capture
}

// runQualityBatch is the engine's quality-cell planner for one benchmark:
// it collects the guarded cells whose captures are already on disk, groups
// them by stream digest, and replays each group of identical streams in a
// single pass, at most ReplayBatch lanes per walk. Cells it cannot serve —
// cold captures, singleton streams, storage trouble — are simply left for
// their sequential variant tasks; only cancellation propagates as an error.
func (r *Runner) runQualityBatch(ctx context.Context, name string) error {
	var cells []batchCell
	for _, org := range GuardedOrgs {
		for _, rate := range r.faultRates() {
			key := fmt.Sprintf("quality/%s/%s/%g", org, name, rate)
			if r.qualityCache.Has(key) {
				continue
			}
			extra := fmt.Sprintf("|fseed=%d|fmodel=%s|qseed=%d|budget=%g|canary=%g",
				r.FaultSeed, r.FaultModel, r.QualitySeed, r.qualityBudget(), r.canaryRate())
			c := r.tryLoad(workloads.CaptureIdent(key, r.Scale, r.Cores, extra), false)
			if c == nil {
				continue
			}
			cells = append(cells, batchCell{org: org, rate: rate, key: key, cap: c})
		}
	}
	// Group by stream digest in grid order; a group's captures differ at
	// most in their identity headers, so one decoded stream serves all of
	// its cells. Singletons gain nothing from batching and keep the plain
	// sequential path.
	var order []uint64
	groups := make(map[uint64][]batchCell)
	for _, c := range cells {
		d := c.cap.StreamDigest
		if _, ok := groups[d]; !ok {
			order = append(order, d)
		}
		groups[d] = append(groups[d], c)
	}
	for _, d := range order {
		g := groups[d]
		if len(g) < 2 {
			continue
		}
		for len(g) > 0 {
			n := len(g)
			if n > r.ReplayBatch {
				n = r.ReplayBatch
			}
			if err := r.replayQualityGroup(ctx, name, d, g[:n]); err != nil {
				return err
			}
			g = g[n:]
		}
	}
	return nil
}

// replayQualityGroup replays one group of identical-stream quality cells in
// a single pass and memoizes each cell's outcome, exactly as its sequential
// QualityErrorContext computation would have: same injector and guard
// seeds, same metric snapshots, same checkpointing. A replay failure other
// than cancellation is absorbed — the cells stay uncomputed and the
// sequential tasks behind this one recover them.
func (r *Runner) replayQualityGroup(ctx context.Context, name string, digest uint64, cells []batchCell) error {
	f, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	a, err := r.baselineScore(ctx, name)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.logf("[%s] batched replay skipped (baseline: %v)", name, err)
		return nil
	}
	r.logf("[%s] batched guarded replay: %d lanes over stream %016x", name, len(cells), digest)
	specs := make([]workloads.ReplaySpec, len(cells))
	children := make([]*metrics.Registry, len(cells))
	guards := make([]*quality.Controller, len(cells))
	for i, c := range cells {
		builder, err := faultBuilder(c.org)
		if err != nil {
			return err
		}
		inj := faults.New(faults.Config{
			Seed:  faults.Derive(r.FaultSeed, fmt.Sprintf("fault/%s/%s/%g", c.org, name, c.rate)),
			Model: r.FaultModel,
			Rate:  c.rate,
		})
		qc, err := r.newGuard(c.key)
		if err != nil {
			return err
		}
		child := r.instrument()
		inj.AttachMetrics(child)
		qc.AttachMetrics(child)
		specs[i] = workloads.ReplaySpec{LLCB: builder, Opt: workloads.RunOptions{
			Cores: r.Cores, Metrics: child, Faults: inj, Quality: qc,
		}}
		children[i] = child
		guards[i] = qc
	}
	runs, err := workloads.ReplayFunctionalBatch(ctx, f.New(r.Scale), cells[0].cap, specs)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.logf("[%s] batched replay failed (%v); cells fall back to sequential runs", name, err)
		return nil
	}
	for i, c := range cells {
		r.Metrics.Counter("trace.replays").Add(1)
		r.collect(c.key+"/func", children[i])
		s := guards[i].Stats()
		outcome := &QualityOutcome{
			TrueErrorBits: math.Float64bits(a.bench.Error(a.out, runs[i].Output)),
			EstimateBits:  math.Float64bits(guards[i].Estimate()),
			FinalState:    guards[i].State(),
			Trips:         s.Trips,
			Reentries:     s.Reentries,
			Canaries:      s.Canaries,
			CanaryDraws:   s.CanaryDraws,
			ApproxOps:     s.ApproxOps,
			Bypassed:      s.Bypassed,
			Transitions:   guards[i].Transitions(),
		}
		if _, err := r.qualityDo(c.key, func() (*QualityOutcome, error) { return outcome, nil }); err != nil {
			return err
		}
	}
	return nil
}

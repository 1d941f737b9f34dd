package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
)

// The sweep's trace cache: every functional cell records its own capture the
// first time it runs live, and every later sweep over the same trace
// directory replays the capture instead of executing kernels. Recording
// per cell (rather than only the precise baseline) is what makes replay
// bit-identical: approximate load values propagate through kernel
// arithmetic into store payloads, so an approximate cell's access stream
// differs from the baseline's and must be captured from the cell itself.
//
// Captures are keyed by a full identity string (cell key + scale + cores +
// any seeds or knobs the cell's result depends on). The identity is stored
// in the file header and re-checked on load, so a capture recorded under a
// different configuration is stale and is re-recorded (or, under
// -trace-replay, rejected with an actionable error) rather than silently
// replayed.

// tracePath maps an identity to its file in the trace directory.
func (r *Runner) tracePath(ident string) string {
	return workloads.CapturePath(r.TraceDir, ident)
}

// traceFS is the filesystem the trace cache runs on: the injected seam
// when chaos tests set one, the real OS otherwise.
func (r *Runner) traceFS() trace.FS {
	if r.TraceFS != nil {
		return r.TraceFS
	}
	return trace.OS
}

// loadCapture is the trace cache's one capture read: the self-healing load
// (workloads.LoadCaptureRecover) of the file for ident, counting every
// successful read as trace.loads.output or trace.loads.full. An output-only
// read (outputOnly) still verifies every section's CRC, the whole-file
// digest and the header identity, but materializes only the annotations and
// output, and it bypasses the decoded cache entirely: that cache holds only
// captures some consumer replays through a hierarchy. A full read probes the
// decoded cache first — the probe costs only the 16-byte digest preamble on
// a hit — and fills it on a decode.
func (r *Runner) loadCapture(ident string, outputOnly bool) (*trace.Capture, workloads.LoadOutcome, error) {
	fsys := r.traceFS()
	path := r.tracePath(ident)
	if !outputOnly && r.DecodedCache != nil {
		if d, err := trace.FileDigestFS(fsys, path); err == nil {
			if c := r.DecodedCache.Get(d); c != nil && c.Header.ConfigKey == ident && c.Header.Cores == r.Cores {
				return c, workloads.LoadOK, nil
			}
		}
	}
	c, outcome, err := workloads.LoadCaptureRecover(fsys, r.TraceDir, path, ident, r.Cores, outputOnly)
	if outcome == workloads.LoadOK {
		if outputOnly {
			r.Metrics.Counter("trace.loads.output").Add(1)
		} else {
			r.Metrics.Counter("trace.loads.full").Add(1)
			r.cacheDecoded(c)
		}
	}
	return c, outcome, err
}

// cacheDecoded offers a fully decoded capture to the shared decoded cache,
// if one is attached.
func (r *Runner) cacheDecoded(c *trace.Capture) {
	if r.DecodedCache != nil {
		r.DecodedCache.Put(c.FileCRC, c)
	}
}

// tryLoad serves the capture for ident to a consumer outside funcRun — the
// batch planner (full) or the baseline score (output-only). Any miss (cold
// directory, stale or corrupt capture, storage trouble) returns nil and
// leaves recovery to the caller's sequential path; a quarantined file is
// counted and moved here, exactly as funcRun would have, so net trace.*
// counters match a sequential sweep's.
func (r *Runner) tryLoad(ident string, outputOnly bool) *trace.Capture {
	c, outcome, err := r.loadCapture(ident, outputOnly)
	if outcome == workloads.LoadQuarantined {
		r.Metrics.Counter("trace.quarantines").Add(1)
		r.logf("capture %s unusable (%v); quarantined for re-recording", filepath.Base(r.tracePath(ident)), err)
	}
	return c
}

// funcRun is the gateway every functional cell goes through. Without a
// trace directory it is exactly the live path. With one, the first run of a
// cell executes live (recording) and persists a capture; later runs replay
// it: output-only cells are served from the embedded output through the
// output-only read, with or without a decoded cache, and cells that need
// cache-state side effects (baseline snapshots, quality guards) fully decode
// the capture (or take it from the decoded cache) and replay the stream
// through a fresh hierarchy, which evolves bit-identically to the live run.
//
// Storage faults never fail a cell (outside -trace-replay): a corrupt or
// stale capture is quarantined and transparently re-recorded, and an
// unavailable store — read errors, ENOSPC, unwritable dir — degrades the
// cell to plain live execution, counted in the trace.degraded metric.
// Either way the cell's row is bit-identical to a clean run's. A failure of
// the live run itself still propagates, and both this cache and the cell
// memos forget errors, so a retry re-records instead of replaying a
// poisoned entry.
func (r *Runner) funcRun(ctx context.Context, cell Cell, llcb workloads.LLCBuilder, ropt workloads.RunOptions) (*workloads.RunResult, error) {
	f, err := workloads.ByName(cell.Bench)
	if err != nil {
		return nil, err
	}
	if r.TraceDir == "" {
		return workloads.RunFunctionalContext(ctx, f.New(r.Scale), llcb, ropt)
	}
	// Error cells consume only the run's output: on a warm cache they are
	// served straight from the capture's output section (the output-only
	// read, never the decoded cache) without rebuilding a hierarchy (their
	// attachments see no traffic and their metrics snapshots stay empty).
	fast := cell.result() == "error"
	name, key := cell.Bench, cell.Stem()
	fsys := r.traceFS()
	ident, _ := cell.CaptureIdent(r)
	path := r.tracePath(ident)
	var live *workloads.RunResult
	capture, err := r.traceCache.Do(ident, func() (*trace.Capture, error) {
		persist := true
		if !r.TraceCapture {
			// Output-only cells take the output-only read (loadCapture). An
			// ident's fast-ness never varies between requests, so this memo
			// can never hand such a capture to a hierarchy replay.
			c, outcome, lerr := r.loadCapture(ident, fast)
			if r.TraceReplay && outcome != workloads.LoadOK {
				if lerr == nil {
					lerr = os.ErrNotExist
				}
				return nil, fmt.Errorf("sweep: -trace-replay: no usable capture for %s: %w", key, lerr)
			}
			switch outcome {
			case workloads.LoadOK:
				r.Metrics.Counter("trace.replays").Add(1)
				r.logf("[%s] replaying capture %s (%s)", name, filepath.Base(path), key)
				return c, nil
			case workloads.LoadMiss:
				// Cold cache: record below.
			case workloads.LoadQuarantined:
				r.Metrics.Counter("trace.quarantines").Add(1)
				r.logf("[%s] capture %s unusable (%v); re-recording", name, filepath.Base(path), lerr)
			case workloads.LoadUnavailable:
				// The bytes may be fine but the I/O path is not: leave the
				// file alone, run live, and don't trust the store with a
				// new write either.
				persist = false
				r.Metrics.Counter("trace.degraded").Add(1)
				r.logf("[%s] trace store unavailable (%v); running %s live unrecorded", name, lerr, key)
			}
		}
		opt := ropt
		opt.Record = true
		run, rerr := workloads.RunFunctionalContext(ctx, f.New(r.Scale), llcb, opt)
		if rerr != nil {
			return nil, rerr
		}
		c, cerr := workloads.CaptureOf(run, trace.FileHeader{
			Benchmark: name,
			Scale:     r.Scale,
			Cores:     r.Cores,
			Seed:      r.faultSeed(cell),
			ConfigKey: ident,
		})
		if cerr != nil {
			return nil, cerr
		}
		live = run
		if persist {
			if perr := persistCapture(fsys, r.TraceDir, path, c); perr != nil {
				// Graceful degradation: the cell's live result is complete
				// and bit-identical to what a recorded run would produce —
				// losing the capture only costs the next sweep a re-record.
				r.Metrics.Counter("trace.degraded").Add(1)
				r.logf("[%s] capture %s not persisted (%v); serving live result", name, filepath.Base(path), perr)
			} else {
				r.Metrics.Counter("trace.records").Add(1)
				if !fast {
					// WriteFileFS stamped c.FileCRC; a freshly recorded
					// replayable capture is servable to other Runners.
					r.cacheDecoded(c)
				}
			}
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	if live != nil {
		// This call recorded the capture: its live result already carries
		// every side effect (snapshots, metrics, guard state).
		return live, nil
	}
	if fast {
		return &workloads.RunResult{Output: capture.Output}, nil
	}
	return workloads.ReplayFunctionalContext(ctx, f.New(r.Scale), capture, llcb, ropt)
}

// persistCapture commits one freshly recorded capture: ensure the
// directory, then the atomic durable write.
func persistCapture(fsys trace.FS, dir, path string, c *trace.Capture) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("sweep: trace dir: %w", err)
	}
	return c.WriteFileFS(fsys, path)
}

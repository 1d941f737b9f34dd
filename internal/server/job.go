// Package server is the sweep engine as a service: an HTTP/JSON job server
// that accepts sweep-cell submissions, shards them across worker pools with
// a consistent-hash ring, and memoizes results by content hash so the same
// cell is never simulated twice. The robustness layer — token-bucket
// admission with load shedding, per-job deadlines with bounded retries and
// hedged re-dispatch, per-shard circuit breakers, graceful drain to a
// resumable state file — is what the chaos test exercises.
package server

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"math"

	"doppelganger/internal/sweep"
)

// Cell names one unit of sweep work — a single experiment cell or a whole
// figure — and is the POST /v1/jobs request body. Every name it has (key,
// route key, capture identity, seeds) is derived in sweep.Cell.
type Cell = sweep.Cell

// payload is the deterministic content of a job result: exactly one of the
// value fields is set, per Kind. It deliberately excludes anything volatile
// (which shard computed it, cache hits, latency) — those live on the Result
// envelope — so payload bytes from any shard, any attempt, or a resumed
// server are comparable byte for byte. Error values travel as raw float64
// bits, the checkpoint's round-trip discipline.
type payload struct {
	Key     string                `json:"key"`
	Kind    string                `json:"kind"`
	Bits    uint64                `json:"bits,omitempty"`
	Timing  *sweep.TimingSummary  `json:"timing,omitempty"`
	Quality *sweep.QualityOutcome `json:"quality,omitempty"`
	Tables  []json.RawMessage     `json:"tables,omitempty"`
}

// checksum is the integrity sum carried beside every payload: FNV-64a over
// the canonical payload bytes, computed at result creation on the shard.
// The dispatcher recomputes it on receipt; a mismatch means the bytes were
// corrupted after the shard sealed them, and the job is retried elsewhere.
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// executeCell runs one cell on a shard's runner and seals its canonical
// payload. Everything here is deterministic in (cell, runner config): fault
// and canary seeds derive from (seed, task key), never from worker or shard
// identity, so any shard produces bit-identical bytes. Figure jobs render a
// whole experiment's tables, computing their missing cells serially inside
// the runner (no per-cell cancellation), so they are the coarse-grained end
// of the job spectrum; the drain timeout still bounds them.
func executeCell(ctx context.Context, r *sweep.Runner, c Cell) ([]byte, error) {
	p := payload{Key: c.Key(), Kind: c.Kind}
	if c.Kind == "figure" {
		tables, err := r.Render(c.Figure)
		if err != nil {
			return nil, err
		}
		for _, t := range tables {
			p.Tables = append(p.Tables, json.RawMessage(t.FormatJSON()))
		}
		return json.Marshal(p)
	}
	res, err := r.RunCell(ctx, c)
	if err != nil {
		return nil, err
	}
	p.Bits, p.Quality = math.Float64bits(res.Error), res.Quality
	if res.Timing != nil {
		p.Timing = sweep.Summarize(res.Timing)
	}
	return json.Marshal(p)
}

// Result is the envelope a completed job returns: the deterministic payload
// plus its integrity sum, and the volatile bookkeeping (content hash, which
// shard computed it, whether this response was served from the memo). Only
// Payload and Sum are covered by the determinism contract.
type Result struct {
	Key     string          `json:"key"`
	Hash    string          `json:"hash"`
	Payload json.RawMessage `json:"payload"`
	Sum     uint64          `json:"sum"`
	Shard   int             `json:"shard"`
	Cached  bool            `json:"cached,omitempty"`
}

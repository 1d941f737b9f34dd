package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"doppelganger/internal/core"
	"doppelganger/internal/funcsim"
	"doppelganger/internal/timesim"
)

// CheckpointSchemaVersion is the on-disk format version. The first line of
// every checkpoint file is a header record carrying it and the run
// identity; -resume refuses a mismatched (or missing) version, and a
// different identity, instead of silently priming caches with records whose
// meaning may have changed.
//
// History: version 1 was the original format (implicit — no header,
// "error" and "timing" records only); version 2 added the header itself and
// the "quality" record kind; version 3 added the run identity to the header,
// since record keys name a cell but not the scale, cores or knobs it ran
// under.
const CheckpointSchemaVersion = 3

// maxCheckpointWarnings caps the warning log so a corrupt (or hostile) file
// cannot balloon memory; the tail is summarized instead.
const maxCheckpointWarnings = 20

// Checkpoint persists completed sweep results as append-only JSONL so an
// interrupted run can resume without repeating finished simulations. One
// record is appended (and flushed) per completed memo key, so whatever was
// finished when a SIGINT arrives is on disk.
//
// Scalars (output errors) are stored as raw float64 bits, and timing runs
// as the reduced TimingSummary, so a resumed run renders bit-identical
// tables: exactly the fields the tables and the energy model consume are
// round-tripped exactly. Baseline artifacts (traces, analyzers, memory
// images) are deliberately not persisted — they are recomputed on resume,
// which is deterministic and far cheaper than serializing them.
type Checkpoint struct {
	mu       sync.Mutex
	f        *os.File
	ident    string
	saved    map[string]bool
	errs     map[string]float64
	timing   map[string]*TimingSummary
	quality  map[string]*QualityOutcome
	warnings []string
}

// TimingSummary is the subset of a timesim.Result the experiment tables and
// the energy model consume; Evicted per-access lists are dropped (nothing
// downstream of the runner reads them).
type TimingSummary struct {
	Cycles        uint64
	PerCoreCycles []uint64
	Instructions  uint64
	Totals        core.Effects
	Hier          funcsim.Stats
}

// Summarize reduces a timing result to the exact fields the tables and the
// energy model consume — the canonical wire/persist form shared by the
// checkpoint file and the sweep server's job responses.
func Summarize(res *timesim.Result) *TimingSummary { return summarize(res) }

// summarize reduces a timing result to its persisted form.
func summarize(res *timesim.Result) *TimingSummary {
	totals := res.Totals
	totals.Evicted = nil
	return &TimingSummary{
		Cycles:        res.Cycles,
		PerCoreCycles: res.PerCoreCycles,
		Instructions:  res.Instructions,
		Totals:        totals,
		Hier:          res.Hier,
	}
}

// Result rebuilds the timesim.Result view of the summary (LLC and Metrics
// are gone; no table consumer reads them).
func (s *TimingSummary) Result() *timesim.Result {
	return &timesim.Result{
		Cycles:        s.Cycles,
		PerCoreCycles: s.PerCoreCycles,
		Instructions:  s.Instructions,
		Totals:        s.Totals,
		Hier:          s.Hier,
	}
}

// checkpointRecord is one JSONL line.
type checkpointRecord struct {
	Kind    string          `json:"kind"` // "header", "error", "timing" or "quality"
	Version int             `json:"version,omitempty"`
	Ident   string          `json:"ident,omitempty"` // header only: Runner.Identity of the run
	Key     string          `json:"key,omitempty"`
	Bits    uint64          `json:"bits,omitempty"` // math.Float64bits of the error value
	Timing  *TimingSummary  `json:"timing,omitempty"`
	Quality *QualityOutcome `json:"quality,omitempty"`
}

// OpenCheckpoint opens (or creates) the checkpoint file at path for a run
// whose Runner.Identity is ident. With resume set, existing records are
// loaded first — feed them to Runner.Resume — and new records append after
// them; a file written under another identity is refused, naming both.
// Without resume the file is truncated and a fresh schema header carrying
// ident is written. A partial trailing line (a write cut off by a kill) is
// tolerated and dropped; duplicate keys keep the last record, with a
// warning (see Warnings).
func OpenCheckpoint(path, ident string, resume bool) (*Checkpoint, error) {
	cp := &Checkpoint{
		ident:   ident,
		saved:   make(map[string]bool),
		errs:    make(map[string]float64),
		timing:  make(map[string]*TimingSummary),
		quality: make(map[string]*QualityOutcome),
	}
	flags := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	cp.f = f
	if resume {
		if err := cp.load(); err != nil {
			f.Close()
			return nil, fmt.Errorf("sweep: checkpoint %s: %w", path, err)
		}
	} else if err := cp.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return cp, nil
}

// writeHeader appends the schema header line.
func (cp *Checkpoint) writeHeader() error {
	b, err := json.Marshal(checkpointRecord{Kind: "header", Version: CheckpointSchemaVersion, Ident: cp.ident})
	if err != nil {
		return err
	}
	_, err = cp.f.Write(append(b, '\n'))
	return err
}

// checkpointData is the parsed content of a checkpoint stream, kept apart
// from the Checkpoint's file handling so the parser can be fuzzed directly.
type checkpointData struct {
	errs     map[string]float64
	timing   map[string]*TimingSummary
	quality  map[string]*QualityOutcome
	warnings []string
	empty    bool // no bytes at all (a freshly created file)
}

// warnf records one warning, capped so hostile inputs cannot balloon memory.
func (d *checkpointData) warnf(format string, args ...interface{}) {
	if len(d.warnings) == maxCheckpointWarnings {
		d.warnings = append(d.warnings, "... further checkpoint warnings suppressed")
	}
	if len(d.warnings) > maxCheckpointWarnings {
		return
	}
	d.warnings = append(d.warnings, fmt.Sprintf(format, args...))
}

// parseCheckpoint reads a checkpoint stream: a schema header line first,
// then one record per line. It enforces the schema version and the run
// identity ident, tolerates unparseable lines (a torn trailing write — or
// mid-file corruption, which additionally earns a warning), and resolves
// duplicate keys by keeping the last record with a warning.
func parseCheckpoint(r io.Reader, ident string) (*checkpointData, error) {
	d := &checkpointData{
		errs:    make(map[string]float64),
		timing:  make(map[string]*TimingSummary),
		quality: make(map[string]*QualityOutcome),
		empty:   true,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	torn := 0
	sawHeader := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		d.empty = false
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if !sawHeader {
				return nil, fmt.Errorf("unreadable schema header: %v (not a checkpoint file? delete it or rerun without -resume)", err)
			}
			// A torn trailing line from an interrupted write, or corruption
			// mid-file: drop it (the task simply recomputes).
			torn++
			continue
		}
		if !sawHeader {
			if rec.Kind != "header" {
				return nil, fmt.Errorf("no schema header (written by an older version?); delete the file or rerun without -resume")
			}
			if rec.Version != CheckpointSchemaVersion {
				return nil, fmt.Errorf("schema version %d, this binary reads %d; delete the file or rerun without -resume",
					rec.Version, CheckpointSchemaVersion)
			}
			if rec.Ident != ident {
				return nil, fmt.Errorf("written by a run with identity %q, this run is %q; delete the file or rerun without -resume",
					rec.Ident, ident)
			}
			sawHeader = true
			continue
		}
		switch rec.Kind {
		case "header":
			d.warnf("unexpected extra header record ignored")
		case "error":
			if _, dup := d.errs[rec.Key]; dup {
				d.warnf("duplicate error record for %q: keeping the last", rec.Key)
			}
			d.errs[rec.Key] = math.Float64frombits(rec.Bits)
		case "timing":
			if rec.Timing == nil {
				d.warnf("timing record for %q has no payload; dropped", rec.Key)
				continue
			}
			if _, dup := d.timing[rec.Key]; dup {
				d.warnf("duplicate timing record for %q: keeping the last", rec.Key)
			}
			d.timing[rec.Key] = rec.Timing
		case "quality":
			if rec.Quality == nil {
				d.warnf("quality record for %q has no payload; dropped", rec.Key)
				continue
			}
			if _, dup := d.quality[rec.Key]; dup {
				d.warnf("duplicate quality record for %q: keeping the last", rec.Key)
			}
			d.quality[rec.Key] = rec.Quality
		default:
			d.warnf("unknown record kind %q ignored", rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading checkpoint: %w", err)
	}
	if torn > 0 {
		d.warnf("skipped %d unparseable line(s) (torn writes or corruption)", torn)
	}
	return d, nil
}

// load parses the existing records (called once, before any writes) and
// leaves the file positioned for appending. An empty file (resuming into a
// path that does not exist yet) gets the schema header written.
func (cp *Checkpoint) load() error {
	if _, err := cp.f.Seek(0, 0); err != nil {
		return err
	}
	d, err := parseCheckpoint(cp.f, cp.ident)
	if err != nil {
		return err
	}
	if _, err := cp.f.Seek(0, 2); err != nil {
		return err
	}
	if d.empty {
		return cp.writeHeader()
	}
	cp.errs, cp.timing, cp.quality, cp.warnings = d.errs, d.timing, d.quality, d.warnings
	for key := range d.errs {
		cp.saved[key+"/error"] = true
	}
	for key := range d.timing {
		cp.saved[key+"/timing"] = true
	}
	for key := range d.quality {
		cp.saved[key+"/quality"] = true
	}
	return nil
}

// Ident returns the run identity the file is bound to.
func (cp *Checkpoint) Ident() string { return cp.ident }

// Errors returns the loaded error records (for Runner.Resume).
func (cp *Checkpoint) Errors() map[string]float64 { return cp.errs }

// Timings returns the loaded timing records (for Runner.Resume).
func (cp *Checkpoint) Timings() map[string]*TimingSummary { return cp.timing }

// Qualities returns the loaded quality-sweep records (for Runner.Resume).
func (cp *Checkpoint) Qualities() map[string]*QualityOutcome { return cp.quality }

// Warnings returns the non-fatal anomalies the resume load tolerated
// (duplicate keys, unparseable lines), for the caller to surface.
func (cp *Checkpoint) Warnings() []string { return cp.warnings }

// Len reports how many records are stored (loaded plus newly saved).
func (cp *Checkpoint) Len() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.saved)
}

// SaveError appends one error record. Duplicate saves of a key (every
// singleflight waiter reports its result) write once.
func (cp *Checkpoint) SaveError(key string, v float64) {
	cp.append(key+"/error", checkpointRecord{Kind: "error", Key: key, Bits: math.Float64bits(v)})
}

// SaveTiming appends one timing record.
func (cp *Checkpoint) SaveTiming(key string, res *timesim.Result) {
	cp.append(key+"/timing", checkpointRecord{Kind: "timing", Key: key, Timing: summarize(res)})
}

// SaveQuality appends one quality-sweep outcome record.
func (cp *Checkpoint) SaveQuality(key string, q *QualityOutcome) {
	cp.append(key+"/quality", checkpointRecord{Kind: "quality", Key: key, Quality: q})
}

func (cp *Checkpoint) append(dedup string, rec checkpointRecord) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.f == nil || cp.saved[dedup] {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return // summaries are plain data; cannot happen
	}
	b = append(b, '\n')
	if _, err := cp.f.Write(b); err != nil {
		return // a full disk mustn't kill the sweep; resume just recomputes
	}
	cp.saved[dedup] = true
}

// Close flushes and closes the file.
func (cp *Checkpoint) Close() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.f == nil {
		return nil
	}
	err := cp.f.Close()
	cp.f = nil
	return err
}

// Resume primes the runner's memo caches from loaded checkpoint records:
// tasks whose results are already on disk are skipped bit-identically, and
// only missing keys simulate. Baselines always recompute (they are not
// checkpointed), which is deterministic, so a resumed run's tables match an
// uninterrupted run byte for byte.
func (r *Runner) Resume(cp *Checkpoint) {
	for key, v := range cp.Errors() {
		r.errCache.Prime(key, v)
	}
	for key, s := range cp.Timings() {
		r.timeCache.Prime(key, s.Result())
	}
	for key, q := range cp.Qualities() {
		r.qualityCache.Prime(key, q)
	}
}

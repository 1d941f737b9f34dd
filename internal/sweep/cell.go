package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"doppelganger/internal/faults"
	"doppelganger/internal/metrics"
	"doppelganger/internal/quality"
	"doppelganger/internal/timesim"
	"doppelganger/internal/workloads"
)

// Cell names one unit of sweep work: a single experiment cell (one memoized
// simulation result) or a whole experiment's tables. It is the one identity
// every layer speaks: the runner's memo keys, checkpoint records, capture
// file identities, fault and guard seeds, and the sweep server's wire keys,
// routing and content hashes are all derived from it here, so no two of
// them can drift apart. The JSON form is the sweep server's POST /v1/jobs
// request body.
type Cell struct {
	// Kind selects the computation:
	//   split-error, split-timing    — split Doppelgänger at (M, Frac)
	//   uni-error, uni-timing        — uniDoppelgänger at (M, Frac)
	//   fault-error                  — Org under injection at Rate
	//   quality-error                — guarded run of Org at Rate
	//   quality-timing               — timing replay of Org at Rate (Guarded?)
	//   baseline-timing              — the precise baseline timing run
	//   figure                       — a whole experiment table (Figure)
	// The Extras table's custom-error and custom-timing cells (Org names
	// the extension configuration) run only inside the runner; Validate
	// does not accept them from the wire.
	Kind  string  `json:"kind"`
	Bench string  `json:"bench,omitempty"`
	M     int     `json:"m,omitempty"`
	Frac  float64 `json:"frac,omitempty"`
	Org   string  `json:"org,omitempty"`
	Rate  float64 `json:"rate,omitempty"`
	// Guarded selects guard-on vs guard-off for quality-timing.
	Guarded bool `json:"guarded,omitempty"`
	// Figure names the experiment for Kind "figure" (see Experiments).
	Figure string `json:"figure,omitempty"`
}

// DecodeCell reads one cell in its JSON wire form, rejecting unknown fields
// so a misspelled knob cannot silently name a different cell. It does not
// validate the cell.
func DecodeCell(r io.Reader) (Cell, error) {
	var c Cell
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&c)
	return c, err
}

func inList(s string, list []string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// Validate rejects cells the runner could only fail on mid-simulation, with
// a message that names the offending field (the flagcheck discipline applied
// to the wire).
func (c Cell) Validate() error {
	if c.Kind != "figure" {
		if _, err := workloads.ByName(c.Bench); err != nil {
			return fmt.Errorf("cell bench: %v", err)
		}
	}
	switch c.Kind {
	case "split-error", "split-timing", "uni-error", "uni-timing":
		if c.M < 1 || c.M > 32 {
			return fmt.Errorf("cell m must be between 1 and 32 bits, got %d", c.M)
		}
		if !(c.Frac > 0 && c.Frac <= 1) {
			return fmt.Errorf("cell frac must be in (0,1], got %v", c.Frac)
		}
		// The builders would panic on a geometry the data array cannot hold
		// (entries not divisible by ways); refuse it at the front door instead
		// of letting it look like a shard crash and feed the breakers.
		geo := workloads.SplitDoppelConfig(c.M, c.Frac)
		if c.Kind == "uni-error" || c.Kind == "uni-timing" {
			geo = workloads.UnifiedDoppelConfig(c.M, c.Frac)
		}
		if err := geo.Validate(); err != nil {
			return fmt.Errorf("cell m/frac geometry: %v", err)
		}
	case "fault-error", "quality-error", "quality-timing":
		orgs := GuardedOrgs
		if c.Kind == "fault-error" {
			orgs = FaultOrgs
		}
		if !inList(c.Org, orgs) {
			return fmt.Errorf("cell org %q unknown (want one of %v)", c.Org, orgs)
		}
		if !(c.Rate >= 0 && c.Rate <= 1) {
			return fmt.Errorf("cell rate must be a probability in [0,1], got %v", c.Rate)
		}
	case "baseline-timing":
	case "figure":
		if _, ok := experimentNamed(c.Figure); !ok {
			return fmt.Errorf("cell figure %q unknown", c.Figure)
		}
	default:
		return fmt.Errorf("cell kind %q unknown", c.Kind)
	}
	return nil
}

// result names the store a cell's value lands in — "error", "timing" or
// "quality" — which is also its checkpoint record kind and its key's
// suffix; "" for figures and unknown kinds.
func (c Cell) result() string {
	switch c.Kind {
	case "split-error", "uni-error", "fault-error", "custom-error":
		return "error"
	case "split-timing", "uni-timing", "quality-timing", "baseline-timing", "custom-timing":
		return "timing"
	case "quality-error":
		return "quality"
	}
	return ""
}

// Stem is the cell's memo key in the runner, e.g. split/kmeans/14/0.25 or
// quality/doppel/kmeans/0.001/time-on; every other name of the cell is built
// from it. A rate of -0 (what JSON "rate": -0 decodes to, and Validate
// accepts) is spelled 0, so the two spellings are one cell.
func (c Cell) Stem() string {
	rate := c.Rate
	if rate == 0 {
		rate = 0
	}
	family, _, _ := strings.Cut(c.Kind, "-")
	switch c.Kind {
	case "split-error", "split-timing", "uni-error", "uni-timing":
		return fmt.Sprintf("%s/%s/%d/%g", family, c.Bench, c.M, c.Frac)
	case "fault-error", "quality-error":
		return fmt.Sprintf("%s/%s/%s/%g", family, c.Org, c.Bench, rate)
	case "quality-timing":
		mode := "time-off"
		if c.Guarded {
			mode = "time-on"
		}
		return fmt.Sprintf("quality/%s/%s/%g/%s", c.Org, c.Bench, rate, mode)
	case "baseline-timing":
		return "base/" + c.Bench
	case "custom-error", "custom-timing":
		return fmt.Sprintf("custom/%s/%s", c.Bench, c.Org)
	case "figure":
		return "figure/" + c.Figure
	}
	return "invalid/" + c.Kind
}

// Key is the cell's unique identity on the wire and in the checkpoint: the
// stem plus its result kind (split/kmeans/14/0.25/error), so server results,
// checkpoint records and runner caches all speak the same names. Figures
// have no result kind and are keyed by their stem alone.
func (c Cell) Key() string {
	if res := c.result(); res != "" {
		return c.Stem() + "/" + res
	}
	return c.Stem()
}

// RouteKey is what the sweep server's consistent-hash ring routes on: the
// benchmark name, so every cell of one benchmark lands on the shard holding
// its warm baseline artifacts (figures route on their own name — they touch
// the whole suite anyway).
func (c Cell) RouteKey() string {
	if c.Kind == "figure" {
		return c.Stem()
	}
	return c.Bench
}

// baseline is the benchmark's precise baseline cell: its functional run is
// what every timing cell replays and every error cell scores against.
func baseline(bench string) Cell { return Cell{Kind: "baseline-timing", Bench: bench} }

// faultKey is the key the cell's fault injector derives its seed from (""
// for cells without one). A guarded functional run shares its unguarded
// fault-error sibling's key, so both see the identical fault stream until
// the breaker first trips; both timing replays share one "/time" key.
func (c Cell) faultKey() string {
	switch c.Kind {
	case "fault-error":
		return c.Stem()
	case "quality-error":
		f := c
		f.Kind = "fault-error"
		return f.Stem()
	case "quality-timing":
		f := c
		f.Kind = "quality-error"
		return f.Stem() + "/time"
	}
	return ""
}

// guardKey is the key the cell's quality guard derives its canary seed from
// ("" for cells without a guard).
func (c Cell) guardKey() string {
	if c.Kind == "quality-error" || c.Kind == "quality-timing" && c.Guarded {
		return c.Stem()
	}
	return ""
}

// faultKnobs renders the runner configuration a fault cell's result depends
// on beyond the cell itself.
func (r *Runner) faultKnobs() string {
	return fmt.Sprintf("|fseed=%d|fmodel=%s", r.FaultSeed, r.FaultModel)
}

// Knobs renders every runner seed and knob any cell's result can depend on
// beyond the cell itself — a guarded cell's — with the defaulted budget and
// canary rate. The sweep server folds it into its content hashes.
func (r *Runner) Knobs() string {
	return r.faultKnobs() + fmt.Sprintf("|qseed=%d|budget=%g|canary=%g",
		r.QualitySeed, r.qualityBudget(), r.canaryRate())
}

// Identity names everything beyond a cell's key that its result depends
// on: the scale, the core count and Knobs. A checkpoint header carries it,
// and the sweep server hashes it with the cell key.
func (r *Runner) Identity() string {
	return fmt.Sprintf("scale=%g|cores=%d%s", r.Scale, r.Cores, r.Knobs())
}

// CaptureIdent is the full identity of the capture the cell's functional
// work replays under r: the identity stored in (and re-checked against) the
// capture file's header, whose hash is the file name. Error and guarded
// cells record their own capture; timing cells replay the benchmark's
// baseline recorder, so they map to the baseline capture. ok is false for
// figures and unknown kinds, which have no single capture.
func (c Cell) CaptureIdent(r *Runner) (ident string, ok bool) {
	var extra string
	switch c.Kind {
	case "split-error", "uni-error", "custom-error":
	case "fault-error":
		extra = r.faultKnobs()
	case "quality-error":
		extra = r.Knobs()
	case "split-timing", "uni-timing", "quality-timing", "baseline-timing", "custom-timing":
		c = baseline(c.Bench)
	default:
		return "", false
	}
	return workloads.CaptureIdent(c.Stem(), r.Scale, r.Cores, extra), true
}

// builder is the LLC organization the cell simulates.
func (c Cell) builder() (workloads.LLCBuilder, error) {
	switch c.Kind {
	case "split-error", "split-timing":
		return workloads.SplitBuilder(c.M, c.Frac), nil
	case "uni-error", "uni-timing":
		return workloads.UnifiedBuilder(c.M, c.Frac), nil
	case "fault-error", "quality-error", "quality-timing":
		return faultBuilder(c.Org)
	case "baseline-timing":
		return workloads.BaselineBuilder(2<<20, 16), nil
	case "custom-error", "custom-timing":
		for _, x := range extrasConfigs() {
			if x.tag == c.Org {
				return workloads.CustomSplitBuilder(x.cfg), nil
			}
		}
		return nil, fmt.Errorf("sweep: unknown extras configuration %q", c.Org)
	}
	return nil, fmt.Errorf("sweep: cell kind %q has no LLC organization", c.Kind)
}

// faultSeed is the seed of the cell's fault injector (0 for cells without
// one), also recorded in the header of the cell's capture.
func (r *Runner) faultSeed(c Cell) uint64 {
	if k := c.faultKey(); k != "" {
		return faults.Derive(r.FaultSeed, k)
	}
	return 0
}

// attachments builds the fault injector and quality guard the cell runs
// with — nil when its kind carries none — reporting into child. Each is
// seeded from (the runner's seed, the cell's seed key) only, so fault and
// canary sites are bit-identical at any worker count.
func (r *Runner) attachments(c Cell, child *metrics.Registry) (inj *faults.Injector, qc *quality.Controller, err error) {
	if c.faultKey() != "" {
		inj = faults.New(faults.Config{Seed: r.faultSeed(c), Model: r.FaultModel, Rate: c.Rate})
		inj.AttachMetrics(child)
	}
	if k := c.guardKey(); k != "" {
		qc, err = quality.New(quality.Config{
			Seed:       faults.Derive(r.QualitySeed, k),
			Budget:     r.qualityBudget(),
			CanaryRate: r.canaryRate(),
		})
		if err != nil {
			return nil, nil, err
		}
		qc.AttachMetrics(child)
	}
	return inj, qc, nil
}

// CellResult is one computed cell: exactly the field named by the cell's
// result kind is set.
type CellResult struct {
	Error   float64
	Timing  *timesim.Result
	Quality *QualityOutcome
}

// RunCell computes (or recalls from the memo) one cell: the one dispatch
// from a cell kind to its simulation, shared by the engine and the sweep
// server. The typed accessors (SplitErrorContext, …) enter the same
// per-result paths directly.
func (r *Runner) RunCell(ctx context.Context, c Cell) (res CellResult, err error) {
	switch c.result() {
	case "error":
		res.Error, err = r.errorCell(ctx, c)
	case "timing":
		res.Timing, err = r.timingCell(ctx, c)
	case "quality":
		res.Quality, err = r.qualityCell(ctx, c)
	default:
		err = fmt.Errorf("sweep: cell kind %q has no simulation", c.Kind)
	}
	return res, err
}

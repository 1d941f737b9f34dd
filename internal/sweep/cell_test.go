package sweep

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"doppelganger/internal/faults"
	"doppelganger/internal/timesim"
)

// TestCellKey pins every name a cell has — runner memo key (stem), wire
// key, checkpoint key, full capture identity, fault- and guard-seed keys —
// for one cell of every kind. Resume, server memoization, capture replay and
// fault/canary determinism all depend on these exact spellings: a capture,
// checkpoint or drain file written by an earlier build must still name the
// same cells. The runner uses non-default seeds, budget and canary rate so
// the capture identities show every knob they carry.
func TestCellKey(t *testing.T) {
	r := NewRunner(0.05)
	r.FaultSeed = 7
	r.FaultModel = faults.StuckAt1
	r.QualitySeed = 9
	r.QualityBudget = 0.1
	r.CanaryRate = 0.02
	const (
		base    = "|scale=0.05|cores=4"
		fknobs  = base + "|fseed=7|fmodel=stuck1"
		allKnob = fknobs + "|qseed=9|budget=0.1|canary=0.02"
	)
	cases := []struct {
		cell                 Cell
		stem, key, cp, ident string
		fault, guard         string
	}{
		{cell: Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25},
			stem: "split/kmeans/14/0.25", key: "split/kmeans/14/0.25/error", cp: "split/kmeans/14/0.25/error",
			ident: "dgtf1|split/kmeans/14/0.25" + base},
		{cell: Cell{Kind: "split-timing", Bench: "kmeans", M: 14, Frac: 0.25},
			stem: "split/kmeans/14/0.25", key: "split/kmeans/14/0.25/timing", cp: "split/kmeans/14/0.25/timing",
			ident: "dgtf1|base/kmeans" + base},
		{cell: Cell{Kind: "uni-error", Bench: "jpeg", M: 14, Frac: 0.5},
			stem: "uni/jpeg/14/0.5", key: "uni/jpeg/14/0.5/error", cp: "uni/jpeg/14/0.5/error",
			ident: "dgtf1|uni/jpeg/14/0.5" + base},
		{cell: Cell{Kind: "uni-timing", Bench: "jpeg", M: 14, Frac: 0.75},
			stem: "uni/jpeg/14/0.75", key: "uni/jpeg/14/0.75/timing", cp: "uni/jpeg/14/0.75/timing",
			ident: "dgtf1|base/jpeg" + base},
		{cell: Cell{Kind: "fault-error", Bench: "kmeans", Org: "doppel", Rate: 1e-4},
			stem: "fault/doppel/kmeans/0.0001", key: "fault/doppel/kmeans/0.0001/error", cp: "fault/doppel/kmeans/0.0001/error",
			ident: "dgtf1|fault/doppel/kmeans/0.0001" + fknobs,
			fault: "fault/doppel/kmeans/0.0001"},
		{cell: Cell{Kind: "quality-error", Bench: "kmeans", Org: "uni", Rate: 1e-4},
			stem: "quality/uni/kmeans/0.0001", key: "quality/uni/kmeans/0.0001/quality", cp: "quality/uni/kmeans/0.0001/quality",
			ident: "dgtf1|quality/uni/kmeans/0.0001" + allKnob,
			fault: "fault/uni/kmeans/0.0001", guard: "quality/uni/kmeans/0.0001"},
		{cell: Cell{Kind: "quality-timing", Bench: "kmeans", Org: "doppel", Rate: 1e-4},
			stem: "quality/doppel/kmeans/0.0001/time-off", key: "quality/doppel/kmeans/0.0001/time-off/timing",
			cp: "quality/doppel/kmeans/0.0001/time-off/timing", ident: "dgtf1|base/kmeans" + base,
			fault: "quality/doppel/kmeans/0.0001/time"},
		{cell: Cell{Kind: "quality-timing", Bench: "kmeans", Org: "doppel", Rate: 1e-4, Guarded: true},
			stem: "quality/doppel/kmeans/0.0001/time-on", key: "quality/doppel/kmeans/0.0001/time-on/timing",
			cp: "quality/doppel/kmeans/0.0001/time-on/timing", ident: "dgtf1|base/kmeans" + base,
			fault: "quality/doppel/kmeans/0.0001/time", guard: "quality/doppel/kmeans/0.0001/time-on"},
		{cell: Cell{Kind: "baseline-timing", Bench: "sobel"},
			stem: "base/sobel", key: "base/sobel/timing", cp: "base/sobel/timing",
			ident: "dgtf1|base/sobel" + base},
		{cell: Cell{Kind: "custom-error", Bench: "kmeans", Org: "minmax"},
			stem: "custom/kmeans/minmax", key: "custom/kmeans/minmax/error", cp: "custom/kmeans/minmax/error",
			ident: "dgtf1|custom/kmeans/minmax" + base},
		{cell: Cell{Kind: "custom-timing", Bench: "kmeans", Org: "aware"},
			stem: "custom/kmeans/aware", key: "custom/kmeans/aware/timing", cp: "custom/kmeans/aware/timing",
			ident: "dgtf1|base/kmeans" + base},
		{cell: Cell{Kind: "figure", Figure: "fig10"}, stem: "figure/fig10", key: "figure/fig10"},
	}
	cp, err := OpenCheckpoint(filepath.Join(t.TempDir(), "cp.jsonl"), testIdent(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	for _, tc := range cases {
		c := tc.cell
		if got := c.Stem(); got != tc.stem {
			t.Errorf("%s: Stem = %q, want %q", c.Kind, got, tc.stem)
		}
		if got := c.Key(); got != tc.key {
			t.Errorf("Key(%+v) = %q, want %q", c, got, tc.key)
		}
		// The checkpoint key is what the runner's memo save files the
		// result under.
		switch c.result() {
		case "error":
			cp.SaveError(c.Stem(), 0)
		case "timing":
			cp.SaveTiming(c.Stem(), &timesim.Result{})
		case "quality":
			cp.SaveQuality(c.Stem(), &QualityOutcome{})
		}
		if tc.cp != "" && !cp.saved[tc.cp] {
			t.Errorf("%s: checkpoint did not file the result under %q", c.Kind, tc.cp)
		}
		ident, ok := c.CaptureIdent(r)
		if ident != tc.ident || ok != (tc.ident != "") {
			t.Errorf("%s: CaptureIdent = %q, %v; want %q", c.Key(), ident, ok, tc.ident)
		}
		if got := c.faultKey(); got != tc.fault {
			t.Errorf("%s: fault-seed key = %q, want %q", c.Key(), got, tc.fault)
		}
		if got := c.guardKey(); got != tc.guard {
			t.Errorf("%s: guard-seed key = %q, want %q", c.Key(), got, tc.guard)
		}
	}
}

// FuzzCellSubmit feeds arbitrary request bodies through the sweep server's
// submit decoder and Validate: a rejected body must fail cleanly, an
// accepted cell must have every name and a dispatch, and its key must
// survive the JSON round trip the drain state file puts it through.
func FuzzCellSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"fault-error","bench":"kmeans","org":"baseline","rate":-0}`,
		`{"kind":"split-error","bench":"kmeans","m":14,"frac":0.25}`,
		`{"kind":"uni-timing","bench":"jpeg","m":14,"frac":0.5}`,
		`{"kind":"quality-timing","bench":"kmeans","org":"uni","rate":1e-4,"guarded":true}`,
		`{"kind":"baseline-timing","bench":"sobel"}`,
		`{"kind":"figure","figure":"fig10"}`,
		`{"kind":"custom-error","bench":"kmeans","org":"minmax"}`,
		`{"kind":"split-error","bench":"kmeans","m":14,"frac":0.25,"seed":3}`,
		`{"kind":"split-error","bench":"kmeans","m":14,"frac":1e400}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	r := NewRunner(0.05)
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := DecodeCell(bytes.NewReader(body))
		if err != nil || c.Validate() != nil {
			return
		}
		key := c.Key()
		if _, ok := c.CaptureIdent(r); ok == (c.Kind == "figure") {
			t.Fatalf("accepted cell %s: capture identity ok=%v", key, ok)
		}
		if (c.result() == "") != (c.Kind == "figure") {
			t.Fatalf("accepted cell %s has no dispatch", key)
		}
		c.faultKey()
		c.guardKey()
		c.RouteKey()
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeCell(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-decoding %s: %v", b, err)
		}
		if back.Key() != key {
			t.Fatalf("key changed across the JSON round trip: %q -> %q (%s)", key, back.Key(), b)
		}
	})
}

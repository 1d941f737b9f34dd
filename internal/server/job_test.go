package server

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"doppelganger/internal/faults"
)

func TestCellValidate(t *testing.T) {
	cases := []struct {
		name string
		cell Cell
		want string // "" = valid; otherwise a required error substring
	}{
		{"split ok", Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}, ""},
		{"uni timing ok", Cell{Kind: "uni-timing", Bench: "jpeg", M: 14, Frac: 0.5}, ""},
		{"fault ok", Cell{Kind: "fault-error", Bench: "kmeans", Org: "doppel", Rate: 1e-4}, ""},
		{"quality ok", Cell{Kind: "quality-error", Bench: "kmeans", Org: "uni", Rate: 1e-4}, ""},
		{"quality timing ok", Cell{Kind: "quality-timing", Bench: "kmeans", Org: "doppel", Rate: 1e-4, Guarded: true}, ""},
		{"baseline ok", Cell{Kind: "baseline-timing", Bench: "inversek2j"}, ""},
		{"figure ok", Cell{Kind: "figure", Figure: "fig10"}, ""},
		{"unknown kind", Cell{Kind: "warp-drive", Bench: "kmeans"}, "kind"},
		{"unknown bench", Cell{Kind: "split-error", Bench: "nope", M: 14, Frac: 0.25}, "bench"},
		{"map bits zero", Cell{Kind: "split-error", Bench: "kmeans", Frac: 0.25}, "m must be"},
		{"map bits huge", Cell{Kind: "uni-error", Bench: "kmeans", M: 48, Frac: 0.25}, "m must be"},
		{"frac zero", Cell{Kind: "split-error", Bench: "kmeans", M: 14}, "frac"},
		{"frac above one", Cell{Kind: "split-timing", Bench: "kmeans", M: 14, Frac: 1.5}, "frac"},
		{"split frac off-geometry", Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.1}, "geometry"},
		{"uni frac off-geometry", Cell{Kind: "uni-timing", Bench: "kmeans", M: 14, Frac: 0.21}, "geometry"},
		{"split frac eighth ok", Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.125}, ""},
		{"bad fault org", Cell{Kind: "fault-error", Bench: "kmeans", Org: "weird", Rate: 1e-4}, "org"},
		{"baseline not guarded", Cell{Kind: "quality-error", Bench: "kmeans", Org: "baseline", Rate: 1e-4}, "org"},
		{"rate above one", Cell{Kind: "fault-error", Bench: "kmeans", Org: "doppel", Rate: 1.5}, "rate"},
		{"unknown figure", Cell{Kind: "figure", Figure: "fig99"}, "figure"},
	}
	for _, tc := range cases {
		err := tc.cell.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCellRouteKey verifies cells route by benchmark (memo locality: a
// benchmark's cells share its warm baseline) and figures by their own name.
func TestCellRouteKey(t *testing.T) {
	a := Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}
	b := Cell{Kind: "fault-error", Bench: "kmeans", Org: "doppel", Rate: 1e-4}
	if a.RouteKey() != b.RouteKey() {
		t.Fatalf("cells of one benchmark route apart: %q vs %q", a.RouteKey(), b.RouteKey())
	}
	f := Cell{Kind: "figure", Figure: "fig10"}
	if f.RouteKey() != "figure/fig10" {
		t.Fatalf("figure route key = %q", f.RouteKey())
	}
}

// TestChecksumDetectsMutation is the corruption-detection primitive: any
// byte flip changes the sum.
func TestChecksumDetectsMutation(t *testing.T) {
	payload := []byte(`{"key":"split/kmeans/14/0.25/error","kind":"split-error","bits":4591870180066957722}`)
	sum := checksum(payload)
	for i := range payload {
		mutated := append([]byte(nil), payload...)
		mutated[i] ^= 0x20
		if checksum(mutated) == sum {
			t.Fatalf("flip at byte %d not detected", i)
		}
	}
}

// TestContentHashSeparatesConfigs verifies the memo key covers the knobs
// that change result bytes: different cells, scales and seeds never collide
// (on this small grid), while the same config hashes identically.
func TestContentHashSeparatesConfigs(t *testing.T) {
	mk := func(cfg Config) *Server {
		cfg.Shards = 1
		return mustServer(t, cfg)
	}
	a := mk(Config{Scale: 0.02})
	cell := Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}
	if a.contentHash(cell) != mk(Config{Scale: 0.02}).contentHash(cell) {
		t.Fatal("same config, same cell: hashes differ")
	}
	// The hashes themselves are the memo identity a restarted or resumed
	// server must reproduce: pin a few, under default and non-default knobs.
	knobs := mk(Config{Scale: 0.05, FaultSeed: 7, FaultModel: faults.StuckAt1, QualitySeed: 9, QualityBudget: 0.1, CanaryRate: 0.02})
	for _, pin := range []struct {
		s    *Server
		cell Cell
		want string
	}{
		{a, cell, "bd8bf3fe223e1f4e"},
		{knobs, cell, "58ce5a6a03a2c7b8"},
		{knobs, Cell{Kind: "quality-error", Bench: "kmeans", Org: "uni", Rate: 1e-4}, "90e7889e9ebc8ad5"},
		{knobs, Cell{Kind: "quality-timing", Bench: "kmeans", Org: "doppel", Rate: 0.001, Guarded: true}, "2ba3d66aa834e0ae"},
		{a, Cell{Kind: "figure", Figure: "fig10"}, "8071e2bb5a31795f"},
	} {
		if got := pin.s.contentHash(pin.cell); got != pin.want {
			t.Errorf("content hash of %s = %s, want %s", pin.cell.Key(), got, pin.want)
		}
	}
	seen := map[string]string{}
	add := func(label, h string) {
		if prev, dup := seen[h]; dup {
			t.Fatalf("content hash collision: %s and %s", prev, label)
		}
		seen[h] = label
	}
	add("base", a.contentHash(cell))
	add("other cell", a.contentHash(Cell{Kind: "split-error", Bench: "kmeans", M: 13, Frac: 0.25}))
	add("other kind", a.contentHash(Cell{Kind: "split-timing", Bench: "kmeans", M: 14, Frac: 0.25}))
	add("other scale", mk(Config{Scale: 0.05}).contentHash(cell))
	add("other fault seed", mk(Config{Scale: 0.02, FaultSeed: 7}).contentHash(cell))
	add("other quality seed", mk(Config{Scale: 0.02, QualitySeed: 7}).contentHash(cell))
	add("other budget", mk(Config{Scale: 0.02, QualityBudget: 0.1}).contentHash(cell))
}

// TestNegativeZeroRateOneCell: JSON "rate": -0 decodes to negative zero,
// which Validate accepts. It must name the same cell as rate 0 — one
// compute, one key — and keep that key through the drain state file, whose
// omitempty drops the -0.
func TestNegativeZeroRateOneCell(t *testing.T) {
	s := mustServer(t, testConfig())
	var keys []string
	var cells []Cell
	for _, body := range []string{
		`{"kind":"fault-error","bench":"kmeans","org":"baseline","rate":-0}`,
		`{"kind":"fault-error","bench":"kmeans","org":"baseline","rate":0}`,
	} {
		var c Cell
		if err := json.Unmarshal([]byte(body), &c); err != nil {
			t.Fatal(err)
		}
		res, err := s.SubmitLocal(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
		keys = append(keys, res.Key)
	}
	if keys[0] != keys[1] {
		t.Errorf("rate -0 and 0 got different keys: %q vs %q", keys[0], keys[1])
	}
	if n := s.Computes(); n != 1 {
		t.Errorf("rate -0 and 0 computed %d times, want 1", n)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := WriteState(path, cells[:1]); err != nil {
		t.Fatal(err)
	}
	back, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Key() != keys[0] {
		t.Errorf("drained cell %+v resumes as %+v, key %q -> %q", cells[0], back, keys[0], back[0].Key())
	}
}

package sweep

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"doppelganger/internal/faults"
	"doppelganger/internal/quality"
	"doppelganger/internal/timesim"
)

// --- checkpoint schema enforcement (no simulations) ---

// testIdent is the identity of a default runner at scale 0.05, the one the
// checkpoint tests resume into.
func testIdent() string { return NewRunner(0.05).Identity() }

// headerLine is the schema header a checkpoint opened under ident starts
// with.
func headerLine(ident string) string {
	b, err := json.Marshal(checkpointRecord{Kind: "header", Version: CheckpointSchemaVersion, Ident: ident})
	if err != nil {
		panic(err)
	}
	return string(b) + "\n"
}

// TestCheckpointRejectsVersionMismatch: a checkpoint written by a different
// schema version must be refused with an actionable message, not silently
// loaded with reinterpreted records.
func TestCheckpointRejectsVersionMismatch(t *testing.T) {
	for _, v := range []string{"1", "2"} {
		path := filepath.Join(t.TempDir(), "cp.jsonl")
		content := `{"kind":"header","version":` + v + `}` + "\n" +
			`{"kind":"error","key":"old","bits":1}` + "\n"
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenCheckpoint(path, testIdent(), true)
		if err == nil {
			t.Fatalf("version-%s checkpoint accepted", v)
		}
		for _, want := range []string{"schema version " + v, "delete the file"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error missing %q:\n%v", want, err)
			}
		}
	}
}

// TestCheckpointRefusesOtherIdentity: record keys name a cell, not the
// scale, core count, seeds or budget it ran under, so a checkpoint resumed
// by a run that differs in any of them is refused with a message naming
// both identities. Nothing is loaded, nothing served, the file untouched.
func TestCheckpointRefusesOtherIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := OpenCheckpoint(path, testIdent(), false)
	if err != nil {
		t.Fatal(err)
	}
	cp.SaveError("split/kmeans/14/0.25", 0.5)
	cp.SaveTiming("split/kmeans/14/0.25", &timesim.Result{Cycles: 9})
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		knob string
		set  func(r *Runner)
	}{
		{"scale", func(r *Runner) { r.Scale = 0.02 }},
		{"cores", func(r *Runner) { r.Cores = 2 }},
		{"fault seed", func(r *Runner) { r.FaultSeed = 7 }},
		{"fault model", func(r *Runner) { r.FaultModel = faults.StuckAt1 }},
		{"quality seed", func(r *Runner) { r.QualitySeed = 7 }},
		{"budget", func(r *Runner) { r.QualityBudget = 0.01 }},
		{"canary rate", func(r *Runner) { r.CanaryRate = 0.5 }},
	} {
		r := NewRunner(0.05)
		tc.set(r)
		re, err := OpenCheckpoint(path, r.Identity(), true)
		if err == nil {
			re.Close()
			t.Errorf("%s changed: checkpoint resumed", tc.knob)
			continue
		}
		if re != nil {
			t.Errorf("%s changed: refused open still returned a checkpoint", tc.knob)
		}
		for _, want := range []string{testIdent(), r.Identity(), "delete the file or rerun without -resume"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s changed: error missing %q:\n%v", tc.knob, want, err)
			}
		}
		if v, err := r.errCache.Do("split/kmeans/14/0.25", func() (float64, error) { return -1, nil }); err != nil || v != -1 {
			t.Errorf("%s changed: runner served %v, %v instead of computing", tc.knob, v, err)
		}
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Error("a refused resume modified the file")
	}
	// The recording identity still resumes.
	re, err := OpenCheckpoint(path, testIdent(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Errors()["split/kmeans/14/0.25"] != 0.5 || re.Timings()["split/kmeans/14/0.25"] == nil {
		t.Fatalf("same-identity resume lost records: %v %v", re.Errors(), re.Timings())
	}
}

// TestCheckpointRejectsMissingHeader: a file that starts with a record
// instead of the header (a pre-versioning checkpoint) is refused.
func TestCheckpointRejectsMissingHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(path, []byte(`{"kind":"error","key":"k","bits":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenCheckpoint(path, testIdent(), true)
	if err == nil || !strings.Contains(err.Error(), "no schema header") {
		t.Fatalf("pre-versioning checkpoint accepted: %v", err)
	}
}

// TestCheckpointRejectsGarbage: a first line that is not JSON at all (wrong
// file entirely) is refused rather than treated as a torn write.
func TestCheckpointRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(path, []byte("PK\x03\x04 definitely not jsonl\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenCheckpoint(path, testIdent(), true)
	if err == nil || !strings.Contains(err.Error(), "unreadable schema header") {
		t.Fatalf("garbage file accepted: %v", err)
	}
}

// TestCheckpointEmptyFileResume: resuming into an empty (or not yet created)
// path is a fresh start — the header is written so the next resume works.
func TestCheckpointEmptyFileResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenCheckpoint(path, testIdent(), true)
	if err != nil {
		t.Fatalf("empty file refused: %v", err)
	}
	cp.SaveError("k", 0.5)
	cp.Close()
	re, err := OpenCheckpoint(path, testIdent(), true)
	if err != nil {
		t.Fatalf("second resume refused: %v", err)
	}
	defer re.Close()
	if re.Errors()["k"] != 0.5 {
		t.Errorf("record lost across empty-file resume: %v", re.Errors())
	}
	if len(re.Warnings()) != 0 {
		t.Errorf("clean resume produced warnings: %v", re.Warnings())
	}
}

// TestCheckpointDuplicateKeysLastWinWithWarning: duplicate keys (two runs
// appending to one file) keep the last record and surface a warning.
func TestCheckpointDuplicateKeysLastWinWithWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	content := headerLine(testIdent()) +
		`{"kind":"error","key":"k","bits":` + "4602678819172646912" + `}` + "\n" + // 0.5
		`{"kind":"error","key":"k","bits":` + "4598175219545276416" + `}` + "\n" // 0.25
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenCheckpoint(path, testIdent(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if got := cp.Errors()["k"]; got != 0.25 {
		t.Errorf("duplicate resolution kept %v, want the last (0.25)", got)
	}
	found := false
	for _, w := range cp.Warnings() {
		if strings.Contains(w, "duplicate error record") && strings.Contains(w, `"k"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("no duplicate-key warning: %v", cp.Warnings())
	}
}

// TestCheckpointQualityRoundTrip: a quality outcome — bits, breaker history
// and all — survives close/reopen exactly, and Resume primes the quality
// cache so the task is not recomputed.
func TestCheckpointQualityRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := OpenCheckpoint(path, testIdent(), false)
	if err != nil {
		t.Fatal(err)
	}
	out := &QualityOutcome{
		TrueErrorBits: math.Float64bits(math.Nextafter(0.043, 1)),
		EstimateBits:  math.Float64bits(0.0371),
		FinalState:    quality.HalfOpen,
		Trips:         2, Reentries: 1, Canaries: 311, CanaryDraws: 6000,
		ApproxOps: 12345, Bypassed: 4001,
		Transitions: []quality.Transition{
			{Op: 100, From: quality.Closed, To: quality.Open, Estimate: 0.061},
			{Op: 2100, From: quality.Open, To: quality.HalfOpen, Estimate: 0.061},
		},
	}
	cp.SaveQuality("quality/doppel/kmeans/0.0001", out)
	cp.SaveQuality("quality/doppel/kmeans/0.0001", &QualityOutcome{}) // duplicate: ignored
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCheckpoint(path, testIdent(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Qualities()["quality/doppel/kmeans/0.0001"]
	if got == nil || !reflect.DeepEqual(got, out) {
		t.Fatalf("quality round trip:\ngot  %+v\nwant %+v", got, out)
	}
	r := NewRunner(0.05)
	r.Resume(re)
	served, err := r.qualityCache.Do("quality/doppel/kmeans/0.0001", func() (*QualityOutcome, error) {
		t.Fatal("resumed quality key recomputed")
		return nil, nil
	})
	if err != nil || !reflect.DeepEqual(served, out) {
		t.Fatalf("resume served %+v, %v", served, err)
	}
}

// FuzzCheckpointParse: the resume parser must never panic, whatever the file
// holds — it either loads, warns, or refuses with an error.
func FuzzCheckpointParse(f *testing.F) {
	const ident = "scale=0.05|cores=4"
	f.Add([]byte(headerLine(ident) +
		`{"kind":"error","key":"a","bits":42}` + "\n" +
		`{"kind":"timing","key":"b","timing":{"Cycles":7}}` + "\n" +
		`{"kind":"quality","key":"c","quality":{"trips":1,"final_state":"open"}}` + "\n"))
	f.Add([]byte(`{"kind":"header","version":1}` + "\n"))
	f.Add([]byte(`{"kind":"header","version":2}` + "\n"))
	f.Add([]byte(headerLine("scale=0.02|cores=4")))
	f.Add([]byte(`{"kind":"error","key":"no-header","bits":1}` + "\n"))
	f.Add([]byte(headerLine(ident) + `{"kind":"error","key":"torn`))
	f.Add([]byte(headerLine(ident) +
		`{"kind":"error","key":"dup","bits":1}` + "\n" +
		`{"kind":"error","key":"dup","bits":2}` + "\n" +
		headerLine(ident) +
		`{"kind":"mystery","key":"x"}` + "\n" +
		`{"kind":"timing","key":"empty"}` + "\n"))
	f.Add([]byte("\x00\xff garbage"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := parseCheckpoint(strings.NewReader(string(data)), ident)
		if err != nil {
			return
		}
		if d.errs == nil || d.timing == nil || d.quality == nil {
			t.Fatal("successful parse returned nil maps")
		}
		if len(d.warnings) > maxCheckpointWarnings+1 {
			t.Fatalf("warning cap breached: %d", len(d.warnings))
		}
	})
}

// --- grid wiring (no simulations) ---

// TestGridForQuality verifies the quality sweep is explicit-only, like the
// fault sweep it extends.
func TestGridForQuality(t *testing.T) {
	if g := GridFor("quality"); !g.Quality {
		t.Error("GridFor(quality) did not enable quality runs")
	}
	if g := GridFor("fig9"); g.Quality {
		t.Error("fig9 grid scheduled quality runs")
	}
	if FullGrid(true).Quality {
		t.Error("FullGrid scheduled quality runs")
	}
}

// --- guarded-run behavior (simulations) ---

// TestQualityGuardHugeBudgetMatchesFaultError is the observation-only
// differential at the sweep layer: with a budget the guard can never exceed,
// the guarded run must report the bit-identical output error of the
// unguarded fault run — canaries observe, they never perturb, and both runs
// derive the fault stream from the same key.
func TestQualityGuardHugeBudgetMatchesFaultError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	r := NewRunner(0.05)
	r.Only = []string{"kmeans"}
	r.FaultSeed = 42
	r.QualitySeed = 7
	r.QualityBudget = 100 // unreachable: the guard can only observe
	r.CanaryRate = 1
	off, err := r.FaultError("kmeans", "doppel", 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := r.QualityError("kmeans", "doppel", 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if q.TrueErrorBits != math.Float64bits(off) {
		t.Errorf("guarded error %x, unguarded %x — observation-only guard perturbed the run",
			q.TrueErrorBits, math.Float64bits(off))
	}
	if q.Trips != 0 || q.Bypassed != 0 || q.FinalState != quality.Closed {
		t.Errorf("guard intervened under an unreachable budget: %+v", q)
	}
	if q.Canaries == 0 {
		t.Error("full-rate canary sampling observed nothing")
	}
}

// TestQualityGuardTripsOverTinyBudget: with a budget below the inherent
// approximation error, the breaker must trip and start bypassing — the
// graceful-degradation path engages end to end through a real workload.
func TestQualityGuardTripsOverTinyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	r := NewRunner(0.05)
	r.Only = []string{"kmeans"}
	r.FaultSeed = 42
	r.QualityBudget = 1e-9 // below any real substitution error
	r.CanaryRate = 1
	q, err := r.QualityError("kmeans", "doppel", 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Trips == 0 {
		t.Fatalf("guard never tripped over a 1e-9 budget: %+v", q)
	}
	if q.Bypassed == 0 {
		t.Errorf("open breaker bypassed nothing: %+v", q)
	}
	if len(q.Transitions) == 0 || q.Transitions[0].From != quality.Closed || q.Transitions[0].To != quality.Open {
		t.Errorf("first transition is not the trip: %+v", q.Transitions)
	}
}

// TestQualitySweepDeterministic is the quality-layer acceptance check: the
// same seeds must produce bit-identical outcomes — including the breaker
// transition log — and byte-identical tables at any worker count.
func TestQualitySweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	run := func(workers int) (string, map[string]*QualityOutcome) {
		r := NewRunner(0.05)
		r.Only = []string{"kmeans"}
		r.Workers = workers
		r.FaultSeed = 42
		r.QualitySeed = 7
		r.FaultRates = []float64{1e-4}
		if err := r.Prewarm(Grid{Benchmarks: r.Only, Quality: true}); err != nil {
			t.Fatal(err)
		}
		errT, runT, err := r.QualitySweep()
		if err != nil {
			t.Fatal(err)
		}
		raw := map[string]*QualityOutcome{}
		for _, org := range GuardedOrgs {
			q, err := r.QualityError("kmeans", org, 1e-4)
			if err != nil {
				t.Fatal(err)
			}
			raw[org] = q
		}
		return errT.Format() + "\n" + runT.Format(), raw
	}
	tbl2, raw2 := run(2)
	tbl4, raw4 := run(4)
	if tbl2 != tbl4 {
		t.Errorf("quality tables differ across worker counts:\n--- workers=2 ---\n%s--- workers=4 ---\n%s", tbl2, tbl4)
	}
	for org, q := range raw2 {
		if !reflect.DeepEqual(q, raw4[org]) {
			t.Errorf("quality outcome for %s differs:\nworkers=2 %+v\nworkers=4 %+v", org, q, raw4[org])
		}
	}
}

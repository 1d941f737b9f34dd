package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doppelganger/internal/sweep"
	"doppelganger/internal/timesim"
	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
)

const saveScale = 0.02

// recordTraceDir records kmeans's baseline the way an experiments
// -trace-dir sweep does and returns the path of its capture.
func recordTraceDir(t *testing.T) string {
	t.Helper()
	r := sweep.NewRunner(saveScale)
	r.Only = []string{"kmeans"}
	r.TraceDir = t.TempDir()
	if _, err := r.Baseline("kmeans"); err != nil {
		t.Fatal(err)
	}
	return workloads.CapturePath(r.TraceDir, baselineIdent("kmeans", saveScale, r.Cores))
}

// TestSaveTraceIsTraceDirCapture: a -savetrace file is byte-identical to
// the baseline capture a -trace-dir sweep records, and replaying either
// times exactly what timesim times on the live recorder.
func TestSaveTraceIsTraceDirCapture(t *testing.T) {
	saved := filepath.Join(t.TempDir(), "kmeans.dgt")
	n, err := saveTrace("kmeans", saveScale, 4, saved, nil)
	if err != nil {
		t.Fatal(err)
	}
	dirPath := recordTraceDir(t)
	got, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-savetrace file (%d bytes) differs from the trace-dir baseline capture (%d bytes)", len(got), len(want))
	}

	f, _ := workloads.ByName("kmeans")
	run := workloads.RunFunctional(f.New(saveScale), workloads.BaselineBuilder(2<<20, 16),
		workloads.RunOptions{Cores: 4, Record: true})
	if run.Recorder.Len() != n {
		t.Fatalf("saved %d accesses, live run recorded %d", n, run.Recorder.Len())
	}
	split := workloads.SplitBuilder(14, 0.25)
	cfg := timesim.DefaultConfig()
	direct := timesim.Run(run.Recorder, run.InitialMem, run.Annotations, split, cfg)
	for _, path := range []string{saved, dirPath} {
		res, err := replayTrace(path, 0, split, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != direct.Cycles || res.MemTraffic() != direct.MemTraffic() {
			t.Errorf("%s: replay gives %d cycles, %d blocks; live recorder gives %d, %d",
				path, res.Cycles, res.MemTraffic(), direct.Cycles, direct.MemTraffic())
		}
	}
}

// TestReplayRejects: -replay refuses anything but a baseline capture, and
// an explicit -cores that disagrees with the recording, each with an error
// naming the file.
func TestReplayRejects(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "kmeans.dgt")
	if _, err := saveTrace("kmeans", saveScale, 4, saved, nil); err != nil {
		t.Fatal(err)
	}
	// A split error cell's capture: valid DGTC, but not a baseline.
	c, err := trace.ReadCaptureFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	r := sweep.NewRunner(saveScale)
	c.Header.ConfigKey, _ = sweep.Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}.CaptureIdent(r)
	split := filepath.Join(dir, "split.dgt")
	if err := c.WriteFile(split); err != nil {
		t.Fatal(err)
	}
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name, path string
		cores      int
		want       string
	}{
		{"missing file", filepath.Join(dir, "absent.dgt"), 0, ""},
		{"garbage", write("garbage.dgt", []byte("not a capture at all")), 0, "corrupt capture"},
		// The retired bundle format's magic and version.
		{"bundle file", write("old.trace", []byte{'D', 'P', 'B', 'L', 1, 0, 0, 0}), 0, "corrupt capture"},
		{"non-baseline capture", split, 0, "not a baseline capture"},
		{"core mismatch", saved, 2, "recorded on 4 cores, -cores asks for 2"},
	}
	for _, tc := range cases {
		_, err := replayTrace(tc.path, tc.cores, workloads.BaselineBuilder(2<<20, 16), timesim.DefaultConfig())
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.path) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error does not name %s and %q: %v", tc.name, tc.path, tc.want, err)
		}
	}
	if _, err := replayTrace(saved, 4, workloads.BaselineBuilder(2<<20, 16), timesim.DefaultConfig()); err != nil {
		t.Errorf("explicit -cores matching the recording rejected: %v", err)
	}
}

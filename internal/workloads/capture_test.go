package workloads

import (
	"bytes"
	"testing"

	"doppelganger/internal/timesim"
	"doppelganger/internal/trace"
)

// TestBundleRoundTrip: a recorded run serializes to a capture and back;
// replaying the loaded capture against the split organization produces the
// exact same cycle count and traffic as replaying the original artifacts.
func TestBundleRoundTrip(t *testing.T) {
	f, _ := ByName("inversek2j")
	run := RunFunctional(f.New(0.05), BaselineBuilder(2<<20, 16), RunOptions{Cores: 2, Record: true})
	c, err := CaptureOf(run, trace.FileHeader{Benchmark: "inversek2j", Scale: 0.05, Cores: 2, ConfigKey: "dgtf1|test|scale=0.05|cores=2"})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}

	cfg := timesim.DefaultConfig()
	cfg.Cores = 2
	direct := timesim.Run(run.Recorder, run.InitialMem, run.Annotations, SplitBuilder(14, 0.25), cfg)
	loaded := timesim.Run(got.Recorder, got.InitialMem, got.Annotations, SplitBuilder(14, 0.25), cfg)
	if direct.Cycles != loaded.Cycles {
		t.Errorf("cycles differ: %d vs %d", direct.Cycles, loaded.Cycles)
	}
	if direct.MemTraffic() != loaded.MemTraffic() {
		t.Errorf("traffic differs: %d vs %d", direct.MemTraffic(), loaded.MemTraffic())
	}
}

// TestBundleRejectsGarbage: a file that is not a capture, or one whose
// identity is not the one asked for, is refused before replay.
func TestBundleRejectsGarbage(t *testing.T) {
	if _, err := trace.ReadCapture(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := trace.ReadCapture(bytes.NewReader([]byte("DGTC\xFF\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))); err == nil {
		t.Error("bad version accepted")
	}

	f, _ := ByName("inversek2j")
	run := RunFunctional(f.New(0.05), BaselineBuilder(2<<20, 16), RunOptions{Cores: 1, Record: true})
	const key = "dgtf1|test|scale=0.05|cores=1"
	c, err := CaptureOf(run, trace.FileHeader{Benchmark: "inversek2j", Scale: 0.05, Cores: 1, ConfigKey: key})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/inversek2j.dgt"
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCapture(path, key+"|other", 1); err == nil {
		t.Error("capture with a different identity accepted")
	}
	if _, err := LoadCapture(path, key, 1); err != nil {
		t.Errorf("capture with the matching identity rejected: %v", err)
	}
}

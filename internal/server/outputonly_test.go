package server

import (
	"context"
	"encoding/binary"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doppelganger/internal/metrics"
	"doppelganger/internal/sweep"
	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
)

// flipTraceSection flips one byte inside the body of a DGTC capture's
// trace section (section id 4): a corruption only the section CRC32 and the
// whole-file digest can see, in a section output-only reads never parse.
func flipTraceSection(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const secTraces = 4
	off := 16 // preamble: magic, version, flags, digest
	for off < len(b) {
		id := b[off]
		length, n := binary.Uvarint(b[off+1:])
		if n <= 0 {
			t.Fatalf("%s: bad section length at %d", path, off+1)
		}
		body := off + 1 + n
		if id == secTraces {
			if length == 0 {
				t.Fatalf("%s: empty trace section", path)
			}
			b[body+int(length)/2] ^= 0x10
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		off = body + int(length) + 4 // body, then its CRC32
	}
	t.Fatalf("%s: no trace section", path)
}

// quarantineReasons returns the condemnation reasons in dir's quarantine.
func quarantineReasons(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, trace.QuarantineDir, "*.reason"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// TestOutputOnlyReadCorruptTraceSection: the output-only capture read skips
// parsing the trace section, but still verifies its CRC. A flipped byte
// there must fail an output-only cell's read — under a decoded cache, in a
// Runner and behind the server — quarantine the file exactly once,
// re-record it, and leave the cell's result bit-identical.
func TestOutputOnlyReadCorruptTraceSection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	checkQuarantine := func(t *testing.T, dir string) {
		t.Helper()
		reasons := quarantineReasons(t, dir)
		if len(reasons) != 1 {
			t.Fatalf("quarantined %d files, want 1: %q", len(reasons), reasons)
		}
		if !strings.Contains(reasons[0], "section 4 crc mismatch") {
			t.Errorf("quarantine reason %q, want the trace section's CRC mismatch", reasons[0])
		}
	}

	t.Run("runner", func(t *testing.T) {
		dir := t.TempDir()
		runner := func() *sweep.Runner {
			r := sweep.NewRunner(0.02)
			r.Only = []string{"kmeans"}
			r.TraceDir = dir
			r.DecodedCache = trace.NewDecodedCache(64 << 20)
			r.Metrics = metrics.NewRegistry()
			return r
		}
		cold := runner()
		want, err := cold.SplitError("kmeans", sweep.BaseMapBits, sweep.BaseDataFrac)
		if err != nil {
			t.Fatal(err)
		}
		ident, _ := Cell{Kind: "split-error", Bench: "kmeans", M: sweep.BaseMapBits, Frac: sweep.BaseDataFrac}.CaptureIdent(cold)
		flipTraceSection(t, workloads.CapturePath(dir, ident))

		w := runner()
		got, err := w.SplitError("kmeans", sweep.BaseMapBits, sweep.BaseDataFrac)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("healed split error %x != recorded %x", math.Float64bits(got), math.Float64bits(want))
		}
		if q, rec := w.Metrics.CounterValue("trace.quarantines"), w.Metrics.CounterValue("trace.records"); q != 1 || rec != 1 {
			t.Errorf("quarantines=%d records=%d, want 1 and 1", q, rec)
		}
		if n := w.Metrics.CounterValue("trace.loads.full"); n != 0 {
			t.Errorf("output-only cell fully decoded %d captures", n)
		}
		checkQuarantine(t, dir)
	})

	t.Run("server", func(t *testing.T) {
		dir := t.TempDir()
		cell := Cell{Kind: "split-error", Bench: "kmeans", M: sweep.BaseMapBits, Frac: sweep.BaseDataFrac}
		cfg := testConfig()
		cfg.TraceDir = dir
		cfg.TraceVerify = trace.VerifyOpen
		cfg.DecodedCacheMB = 64
		cfg.Log = nil

		first, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := first.Submit(context.Background(), cell)
		if err != nil {
			t.Fatal(err)
		}
		ident, _ := cell.CaptureIdent(first.shards[0].runner)
		first.Close()

		// Corrupt after the startup scrub, so the cell's own read meets it.
		second := mustServer(t, cfg)
		flipTraceSection(t, workloads.CapturePath(dir, ident))
		got, err := second.Submit(context.Background(), cell)
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Payload) != string(want.Payload) {
			t.Fatalf("healed payload diverged:\n%s\nvs\n%s", got.Payload, want.Payload)
		}
		st := second.Stats()
		if st.TraceQuarantined != 1 || st.TraceRecords != 1 {
			t.Errorf("quarantined=%d records=%d, want 1 and 1", st.TraceQuarantined, st.TraceRecords)
		}
		if st.DecodedCache == nil || st.DecodedCache.Entries != 0 {
			t.Errorf("output-only cell filled the decoded cache: %+v", st.DecodedCache)
		}
		checkQuarantine(t, dir)

		// The load counters render on /metrics.
		rec := httptest.NewRecorder()
		second.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if !strings.Contains(rec.Body.String(), `"trace.loads.output"`) {
			t.Errorf("/metrics lacks trace.loads.output:\n%s", rec.Body.String())
		}
	})
}

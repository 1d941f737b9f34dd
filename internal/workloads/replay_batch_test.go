package workloads

import (
	"context"
	"math"
	"reflect"
	"testing"

	"doppelganger/internal/faults"
	"doppelganger/internal/quality"
	"doppelganger/internal/trace"
)

// batchSpecs builds the K diverse lanes of the differential test: precise
// baseline, two Doppelgänger geometries, a fault-injected lane, and a
// fault-injected lane with the quality guard attached. Injectors and guards
// are stateful, so each call constructs fresh, identically-seeded ones.
func batchSpecs(t *testing.T) ([]ReplaySpec, []*faults.Injector, []*quality.Controller) {
	t.Helper()
	const rate = 1e-4
	seed := faults.Derive(42, "fault/doppel/kmeans/0.0001")
	injF := faults.New(faults.Config{Seed: seed, Rate: rate})
	injQ := faults.New(faults.Config{Seed: seed, Rate: rate})
	qc, err := quality.New(quality.Config{Seed: faults.Derive(7, "quality/doppel/kmeans/0.0001"), Budget: 0.05, CanaryRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	specs := []ReplaySpec{
		{LLCB: BaselineBuilder(2<<20, 16), Opt: RunOptions{Cores: 4}},
		{LLCB: SplitBuilder(14, 0.25), Opt: RunOptions{Cores: 4}},
		{LLCB: UnifiedBuilder(14, 0.5), Opt: RunOptions{Cores: 4}},
		{LLCB: SplitBuilder(13, 0.25), Opt: RunOptions{Cores: 4, Faults: injF}},
		{LLCB: SplitBuilder(12, 0.5), Opt: RunOptions{Cores: 4, Faults: injQ, Quality: qc}},
	}
	return specs, []*faults.Injector{injF, injQ}, []*quality.Controller{qc}
}

// Satellite: ReplayBatch over K configs must equal K sequential
// ReplayFunctionalContext runs bit for bit — outputs, Doppelgänger stats,
// occupancy, fault sites and the guard's full breaker history included.
func TestReplayBatchMatchesSequentialRuns(t *testing.T) {
	const scale = 0.05
	f, err := ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	live := RunFunctional(f.New(scale), BaselineBuilder(2<<20, 16), RunOptions{Cores: 4, Record: true})
	cap, err := CaptureOf(live, trace.FileHeader{Benchmark: "kmeans", Scale: scale, Cores: 4, ConfigKey: "dgtf1|test|scale=0.05|cores=4"})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	specs, binj, bqc := batchSpecs(t)
	batched, err := ReplayFunctionalBatch(ctx, f.New(scale), cap, specs)
	if err != nil {
		t.Fatal(err)
	}

	seqSpecs, sinj, sqc := batchSpecs(t)
	for i, sp := range seqSpecs {
		seq, err := ReplayFunctionalContext(ctx, f.New(scale), cap, sp.LLCB, sp.Opt)
		if err != nil {
			t.Fatalf("lane %d sequential: %v", i, err)
		}
		b := batched[i]
		if len(b.Output) != len(seq.Output) {
			t.Fatalf("lane %d: output length %d != %d", i, len(b.Output), len(seq.Output))
		}
		for j := range b.Output {
			if math.Float64bits(b.Output[j]) != math.Float64bits(seq.Output[j]) {
				t.Fatalf("lane %d: output[%d] %x != %x", i, j, math.Float64bits(b.Output[j]), math.Float64bits(seq.Output[j]))
			}
		}
		if b.TagsAtEnd != seq.TagsAtEnd || b.DataBlocksAtEnd != seq.DataBlocksAtEnd {
			t.Fatalf("lane %d: occupancy (%d,%d) != (%d,%d)", i, b.TagsAtEnd, b.DataBlocksAtEnd, seq.TagsAtEnd, seq.DataBlocksAtEnd)
		}
		if !reflect.DeepEqual(b.DoppelStats, seq.DoppelStats) {
			t.Fatalf("lane %d: doppel stats %+v != %+v", i, b.DoppelStats, seq.DoppelStats)
		}
		if b.AvgTagsPerData != seq.AvgTagsPerData || b.CompressionRatio != seq.CompressionRatio {
			t.Fatalf("lane %d: tag/data ratios diverged", i)
		}
	}

	// The stateful attachments relived the identical histories: same fault
	// draws and sites, same breaker transitions and final estimate.
	for i := range binj {
		for _, tg := range faults.Targets() {
			if binj[i].Stats(tg) != sinj[i].Stats(tg) {
				t.Fatalf("injector %d target %s: %+v != %+v", i, tg, binj[i].Stats(tg), sinj[i].Stats(tg))
			}
		}
	}
	for i := range bqc {
		if bqc[i].Stats() != sqc[i].Stats() {
			t.Fatalf("guard %d stats %+v != %+v", i, bqc[i].Stats(), sqc[i].Stats())
		}
		if math.Float64bits(bqc[i].Estimate()) != math.Float64bits(sqc[i].Estimate()) {
			t.Fatalf("guard %d estimate diverged", i)
		}
		if !reflect.DeepEqual(bqc[i].Transitions(), sqc[i].Transitions()) {
			t.Fatalf("guard %d transitions %+v != %+v", i, bqc[i].Transitions(), sqc[i].Transitions())
		}
	}
}

// TestCaptureOfRequiresRecording: only a run made with RunOptions.Record
// carries the stream and initial image a capture persists.
func TestCaptureOfRequiresRecording(t *testing.T) {
	f, _ := ByName("inversek2j")
	run := RunFunctional(f.New(0.05), BaselineBuilder(2<<20, 16), RunOptions{Cores: 1})
	if _, err := CaptureOf(run, trace.FileHeader{Benchmark: "inversek2j"}); err == nil {
		t.Error("unrecorded run accepted")
	}
}

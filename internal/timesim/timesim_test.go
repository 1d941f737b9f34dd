package timesim

import (
	"context"
	"strings"
	"testing"

	"doppelganger/internal/approx"
	"doppelganger/internal/cache"
	"doppelganger/internal/core"
	"doppelganger/internal/memdata"
	"doppelganger/internal/trace"
)

func baselineBuilder(size int) func(st *memdata.Store, ann *approx.Annotations) core.LLC {
	return func(st *memdata.Store, ann *approx.Annotations) core.LLC {
		return core.NewBaseline(cache.Config{Name: "LLC", SizeBytes: size, Ways: 4}, st, ann)
	}
}

// mkTrace builds a single-core trace of loads at the given block indices
// with a fixed instruction gap.
func mkTrace(gap uint32, blocks ...int) *trace.Recorder {
	rec := trace.NewRecorder(1)
	for _, b := range blocks {
		rec.Work(0, int(gap))
		rec.Access(0, memdata.Addr(0x1000+b*64), false, 4, 0, false)
	}
	return rec
}

func run1(rec *trace.Recorder, cfg Config) *Result {
	cfg.Cores = 1
	return Run(rec, memdata.NewStore(), nil, baselineBuilder(16<<10), cfg)
}

func TestComputeBoundRuntime(t *testing.T) {
	// One L1-resident block touched repeatedly with big gaps: runtime is
	// dominated by dispatch (gap/width), not memory.
	blocks := make([]int, 100)
	rec := mkTrace(400, blocks...)
	res := run1(rec, DefaultConfig())
	wantMin := uint64(100 * 400 / 4)
	if res.Cycles < wantMin || res.Cycles > wantMin+uint64(float64(wantMin)*0.2) {
		t.Errorf("cycles = %d, want ≈%d", res.Cycles, wantMin)
	}
	if res.Instructions != 100*401 {
		t.Errorf("instructions = %d", res.Instructions)
	}
}

func TestMemoryBoundRuntime(t *testing.T) {
	// Distinct blocks with zero gap: every access misses to memory; with
	// MSHRs=1 they fully serialize at ≥ MemLat each.
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	blocks := make([]int, 50)
	for i := range blocks {
		blocks[i] = i
	}
	res := run1(mkTrace(0, blocks...), cfg)
	if res.Cycles < 50*160 {
		t.Errorf("cycles = %d, want ≥ %d (serialized misses)", res.Cycles, 50*160)
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// With 8 MSHRs the same misses overlap: runtime must be far below the
	// serialized bound but at least one memory latency.
	cfg := DefaultConfig()
	blocks := make([]int, 64)
	for i := range blocks {
		blocks[i] = i
	}
	res := run1(mkTrace(0, blocks...), cfg)
	serial := uint64(64 * 160)
	if res.Cycles >= serial/3 {
		t.Errorf("cycles = %d; MSHR overlap should beat %d by ≥3x", res.Cycles, serial)
	}
	if res.Cycles < 160 {
		t.Errorf("cycles = %d < one memory latency", res.Cycles)
	}
}

func TestROBLimitsOverlap(t *testing.T) {
	// With a huge gap between misses the ROB fills with non-mem
	// instructions, serializing the misses even with many MSHRs.
	cfgWide := DefaultConfig()
	cfgWide.ROB = 10000
	cfgNarrow := DefaultConfig()
	cfgNarrow.ROB = 16
	blocks := make([]int, 64)
	for i := range blocks {
		blocks[i] = i
	}
	wide := run1(mkTrace(64, blocks...), cfgWide)
	narrow := run1(mkTrace(64, blocks...), cfgNarrow)
	if narrow.Cycles <= wide.Cycles {
		t.Errorf("narrow ROB (%d cycles) should be slower than wide (%d)", narrow.Cycles, wide.Cycles)
	}
}

func TestCacheHitsAreCheap(t *testing.T) {
	// Second sweep over a small set of blocks hits in L1/L2; runtime should
	// barely grow.
	blocks := make([]int, 0, 32)
	for i := 0; i < 8; i++ {
		blocks = append(blocks, i)
	}
	once := run1(mkTrace(0, blocks...), DefaultConfig())
	blocks = append(blocks, blocks...)
	blocks = append(blocks, blocks...) // 4 sweeps
	fourx := run1(mkTrace(0, blocks...), DefaultConfig())
	if fourx.Cycles > once.Cycles*2 {
		t.Errorf("4 sweeps took %d vs %d for one; hits should be cheap", fourx.Cycles, once.Cycles)
	}
}

func TestMultiCoreFinishesAllTraces(t *testing.T) {
	rec := trace.NewRecorder(4)
	for c := 0; c < 4; c++ {
		for i := 0; i < 20+10*c; i++ {
			rec.Access(c, memdata.Addr(0x1000+c*0x10000+i*64), i%3 == 0, 4, 7, false)
		}
	}
	cfg := DefaultConfig()
	res := Run(rec, memdata.NewStore(), nil, baselineBuilder(16<<10), cfg)
	if res.Instructions != uint64(rec.Instructions()) {
		t.Errorf("instructions = %d, want %d", res.Instructions, rec.Instructions())
	}
	for c, cy := range res.PerCoreCycles {
		if cy == 0 && len(rec.Cores[c]) > 0 {
			t.Errorf("core %d reported 0 cycles", c)
		}
		if cy > res.Cycles {
			t.Errorf("core %d beyond total", c)
		}
	}
}

// TestRunRejectsUnmodeledCores: a 4-core trace timed on a 2-core
// configuration is an error naming both counts, not a silent replay of
// cores 0 and 1 alone. Fewer trace cores than modeled stays legal.
func TestRunRejectsUnmodeledCores(t *testing.T) {
	rec := trace.NewRecorder(4)
	for c := 0; c < 4; c++ {
		rec.Access(c, memdata.Addr(0x1000+c*64), false, 4, 0, false)
	}
	cfg := DefaultConfig()
	cfg.Cores = 2
	res, err := RunContext(context.Background(), rec, memdata.NewStore(), nil, baselineBuilder(16<<10), cfg)
	if err == nil {
		t.Fatalf("4-core trace on 2 modeled cores accepted (%d instructions timed)", res.Instructions)
	}
	if !strings.Contains(err.Error(), "4 cores") || !strings.Contains(err.Error(), "models 2") {
		t.Errorf("error does not name both core counts: %v", err)
	}
	cfg.Cores = 8
	if _, err := RunContext(context.Background(), rec, memdata.NewStore(), nil, baselineBuilder(16<<10), cfg); err != nil {
		t.Errorf("4-core trace on 8 modeled cores rejected: %v", err)
	}
}

func TestStoresApplyValues(t *testing.T) {
	rec := trace.NewRecorder(1)
	rec.Access(0, 0x1000, true, 4, 1234, false)
	st := memdata.NewStore()
	cfg := DefaultConfig()
	cfg.Cores = 1
	var built core.LLC
	res := Run(rec, st, nil, func(s *memdata.Store, ann *approx.Annotations) core.LLC {
		built = core.NewBaseline(cache.Config{Name: "LLC", SizeBytes: 16 << 10, Ways: 4}, s, ann)
		return built
	}, cfg)
	_ = res
	// The value lives in the replay hierarchy's caches; the LLC's snapshot
	// store is a clone, so check via the built LLC's backing after eviction
	// is unnecessary — instead verify traffic happened.
	if res.Totals.MemReads != 1 {
		t.Errorf("write-allocate should read memory once: %d", res.Totals.MemReads)
	}
}

func TestDeterministicReplay(t *testing.T) {
	rec := trace.NewRecorder(2)
	for i := 0; i < 200; i++ {
		rec.Access(i%2, memdata.Addr(0x1000+(i*37%64)*64), i%5 == 0, 4, uint64(i), false)
	}
	cfg := DefaultConfig()
	cfg.Cores = 2
	a := Run(rec, memdata.NewStore(), nil, baselineBuilder(8<<10), cfg)
	b := Run(rec, memdata.NewStore(), nil, baselineBuilder(8<<10), cfg)
	if a.Cycles != b.Cycles || a.Totals.MemReads != b.Totals.MemReads ||
		a.Totals.MemWrites != b.Totals.MemWrites || a.Totals.PTagReads != b.Totals.PTagReads {
		t.Error("replay nondeterministic")
	}
}

func TestLLCPortContention(t *testing.T) {
	// Four cores all missing to the LLC: with a single bank, high port
	// occupancy must increase runtime versus free ports.
	rec := trace.NewRecorder(4)
	for c := 0; c < 4; c++ {
		for i := 0; i < 100; i++ {
			rec.Access(c, memdata.Addr(0x100000*(c+1)+i*64), false, 4, 0, false)
		}
	}
	free := DefaultConfig()
	free.LLCPort = 0
	congested := DefaultConfig()
	congested.LLCPort = 20
	a := Run(rec, memdata.NewStore(), nil, baselineBuilder(4<<10), free)
	b := Run(rec, memdata.NewStore(), nil, baselineBuilder(4<<10), congested)
	if b.Cycles <= a.Cycles {
		t.Errorf("port contention had no effect: %d vs %d", b.Cycles, a.Cycles)
	}
}

func TestMPKIAndTraffic(t *testing.T) {
	blocks := make([]int, 100)
	for i := range blocks {
		blocks[i] = i
	}
	res := run1(mkTrace(9, blocks...), DefaultConfig())
	if res.MemTraffic() != 100 {
		t.Errorf("traffic = %d, want 100 cold misses", res.MemTraffic())
	}
	if mpki := res.MPKI(); mpki < 99 || mpki > 101 { // 100 misses / 1000 instr
		t.Errorf("MPKI = %v", mpki)
	}
}

package timesim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"doppelganger/internal/approx"
	"doppelganger/internal/cache"
	"doppelganger/internal/core"
	"doppelganger/internal/memdata"
	"doppelganger/internal/trace"
)

// refQueue orders cores with container/heap, the reference coreQueue must
// reproduce swap for swap.
type refQueue struct {
	ids   []int
	times []float64
}

func (q *refQueue) Len() int           { return len(q.ids) }
func (q *refQueue) Less(i, j int) bool { return q.times[i] < q.times[j] }
func (q *refQueue) Swap(i, j int) {
	q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
	q.times[i], q.times[j] = q.times[j], q.times[i]
}
func (q *refQueue) Push(x interface{}) { panic("fixed-size queue") }
func (q *refQueue) Pop() interface{} {
	last := len(q.ids) - 1
	q.ids, q.times = q.ids[:last], q.times[:last]
	return nil
}

// TestCoreQueueMatchesContainerHeap drives coreQueue and a container/heap
// reference through the event loop's pattern (re-time the head and sift it,
// or remove it when its core's trace ends) with issue times drawn from a
// small set, so ties are common. Equal-time cores must pop in the same
// order: the timing goldens depend on it.
func TestCoreQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(4)
		left := make([]int, n) // events still to issue per core
		q, ref := &coreQueue{}, &refQueue{}
		for c := 0; c < n; c++ {
			left[c] = rng.Intn(12)
			tm := float64(rng.Intn(3))
			q.ids, q.times = append(q.ids, c), append(q.times, tm)
			ref.ids, ref.times = append(ref.ids, c), append(ref.times, tm)
		}
		q.init()
		heap.Init(ref)
		for step := 0; len(ref.ids) > 0; step++ {
			if len(q.ids) != len(ref.ids) || q.ids[0] != ref.ids[0] || q.times[0] != ref.times[0] {
				t.Fatalf("trial %d step %d: head core %d@%v, container/heap pops %d@%v",
					trial, step, q.ids[0], q.times[0], ref.ids[0], ref.times[0])
			}
			c := ref.ids[0]
			if left[c] > 0 {
				left[c]--
				tm := ref.times[0] + float64(rng.Intn(3))*0.5
				q.times[0], ref.times[0] = tm, tm
				q.down(0)
				heap.Fix(ref, 0)
			} else {
				q.popFront()
				heap.Remove(ref, 0)
			}
		}
		if len(q.ids) != 0 {
			t.Fatalf("trial %d: coreQueue holds %d cores after the reference drained", trial, len(q.ids))
		}
	}
}

// refReady is ready with the original MSHR wait: step to the next distinct
// completion while MSHRs or more ops are in flight.
func refReady(cs *coreState, cfg *Config) float64 {
	r := cs.t[cs.pos]
	t := cs.dispatch + float64(r.Gap)/float64(cfg.Width)
	nextInstr := cs.instr + uint64(r.Gap) + 1
	base := t
	for cs.rob.n > 0 && cs.rob.at(0).instr+uint64(cfg.ROB) <= nextInstr {
		if c := cs.rob.at(0).complete; c > t {
			t = c
		}
		cs.rob.popFront()
	}
	cs.robStall += t - base
	base = t
	for inflight(&cs.rob, t) >= cfg.MSHRs {
		t = refEarliestAfter(&cs.rob, t)
	}
	cs.mshrStall += t - base
	return t
}

func refEarliestAfter(rob *robRing, t float64) float64 {
	for i := 0; i < rob.n; i++ {
		if c := rob.at(i).complete; c > t {
			return c
		}
	}
	return t
}

// TestMSHRReadyMatchesScan checks the O(1) MSHR wait against the original
// completion-by-completion scan over random non-decreasing ROB contents
// (ties and already-completed ops common): the issue time and both stall
// accumulators must agree bit for bit.
func TestMSHRReadyMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		cfg := DefaultConfig()
		cfg.MSHRs = []int{1, 2, 3, 8}[rng.Intn(4)]
		cfg.ROB = []int{4, 16, 80}[rng.Intn(3)]
		build := func() *coreState {
			r := rand.New(rand.NewSource(int64(trial)))
			cs := &coreState{
				t:        trace.Trace{{Gap: uint32(r.Intn(6))}},
				dispatch: float64(r.Intn(40)) * 0.25,
				robStall: 1.5, mshrStall: 2.25,
			}
			complete := float64(r.Intn(20)) * 0.25
			for i, n := 0, r.Intn(cfg.ROB+1); i < n; i++ {
				cs.instr += uint64(1 + r.Intn(3))
				complete += float64(r.Intn(3)) * []float64{0.25, 1, 7}[r.Intn(3)]
				cs.rob.push(robEntry{instr: cs.instr, complete: complete})
			}
			return cs
		}
		got, want := build(), build()
		gt, wt := got.ready(&cfg), refReady(want, &cfg)
		if math.Float64bits(gt) != math.Float64bits(wt) ||
			math.Float64bits(got.mshrStall) != math.Float64bits(want.mshrStall) ||
			math.Float64bits(got.robStall) != math.Float64bits(want.robStall) ||
			got.rob.n != want.rob.n {
			t.Fatalf("trial %d (MSHRs %d, ROB %d): ready %v mshr %v rob %v n %d; scan %v mshr %v rob %v n %d",
				trial, cfg.MSHRs, cfg.ROB, gt, got.mshrStall, got.robStall, got.rob.n,
				wt, want.mshrStall, want.robStall, want.rob.n)
		}
	}
}

// benchTrace is a fixed synthetic 4-core trace: each core streams over its
// own 256 KB region (L1 and L2 misses, LLC hits on the second pass) with a
// shared 16 KB hot region every eighth access.
func benchTrace() *trace.Recorder {
	rec := trace.NewRecorder(4)
	rng := rand.New(rand.NewSource(1))
	for c := range rec.Cores {
		tr := make(trace.Trace, 0, 20000)
		for i := 0; i < cap(tr); i++ {
			addr := memdata.Addr(c<<20 + (i*memdata.BlockSize)%(256<<10))
			if i%8 == 0 {
				addr = memdata.Addr(8<<20 + rng.Intn(16<<10)&^7)
			}
			tr = append(tr, trace.Record{Addr: addr, Gap: uint32(rng.Intn(4)), Size: 4, Write: i%5 == 0})
		}
		rec.Cores[c] = tr
	}
	return rec
}

// BenchmarkRun times the core model and the hierarchy it drives over
// benchTrace against the Table 1 baseline LLC (2 MB, 16 ways).
func BenchmarkRun(b *testing.B) {
	rec := benchTrace()
	st := memdata.NewStore()
	llcb := func(st *memdata.Store, ann *approx.Annotations) core.LLC {
		return core.NewBaseline(cache.Config{Name: "LLC", SizeBytes: 2 << 20, Ways: 16}, st, ann)
	}
	var accesses int
	for _, tr := range rec.Cores {
		accesses += len(tr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(rec, st, nil, llcb, DefaultConfig())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accesses), "ns/access")
}

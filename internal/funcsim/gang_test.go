package funcsim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"doppelganger/internal/memdata"
	"doppelganger/internal/trace"
)

func TestGangRunsAllKernels(t *testing.T) {
	h, _ := testHierarchy(4, nil)
	done := make([]bool, 4)
	kernels := make([]func(*CoreCtx), 4)
	for c := 0; c < 4; c++ {
		c := c
		kernels[c] = func(ctx *CoreCtx) {
			if ctx.Core() != c {
				t.Errorf("kernel %d got core %d", c, ctx.Core())
			}
			for i := 0; i < 10+c*3; i++ { // uneven lengths
				ctx.StoreI32(memdata.Addr(0x1000+c*4096+i*64), int32(i))
			}
			done[c] = true
		}
	}
	Run(h, kernels)
	for c, d := range done {
		if !d {
			t.Errorf("kernel %d did not finish", c)
		}
	}
}

func TestGangDeterministicInterleaving(t *testing.T) {
	run := func() []int32 {
		h, st := testHierarchy(2, nil)
		kernels := []func(*CoreCtx){
			func(ctx *CoreCtx) {
				for i := 0; i < 50; i++ {
					v := ctx.LoadI32(0x100)
					ctx.StoreI32(0x100, v+1)
				}
			},
			func(ctx *CoreCtx) {
				for i := 0; i < 50; i++ {
					v := ctx.LoadI32(0x100)
					ctx.StoreI32(0x100, v*2%1000)
				}
			},
		}
		Run(h, kernels)
		h.Flush()
		return []int32{st.ReadI32(0x100)}
	}
	a, b := run(), run()
	if a[0] != b[0] {
		t.Errorf("nondeterministic: %d vs %d", a[0], b[0])
	}
}

func TestGangBarrier(t *testing.T) {
	h, _ := testHierarchy(4, nil)
	phase := make([]int, 4)
	kernels := make([]func(*CoreCtx), 4)
	for c := 0; c < 4; c++ {
		c := c
		kernels[c] = func(ctx *CoreCtx) {
			// Uneven pre-barrier work.
			for i := 0; i < (c+1)*7; i++ {
				ctx.LoadI32(memdata.Addr(0x1000 + c*4096 + i*64))
			}
			phase[c] = 1
			ctx.Barrier()
			// After the barrier every core must observe every phase[i] == 1.
			for i := 0; i < 4; i++ {
				if phase[i] != 1 {
					t.Errorf("core %d passed barrier before core %d", c, i)
				}
			}
			ctx.LoadI32(memdata.Addr(0x2000 + c*64))
		}
	}
	Run(h, kernels)
}

func TestGangBarrierWithFinishedCores(t *testing.T) {
	// Core 1 finishes without ever reaching a barrier; cores 0 and 2 should
	// still rendezvous.
	h, _ := testHierarchy(3, nil)
	kernels := []func(*CoreCtx){
		func(ctx *CoreCtx) {
			ctx.LoadI32(0x100)
			ctx.Barrier()
			ctx.LoadI32(0x200)
		},
		func(ctx *CoreCtx) {
			ctx.LoadI32(0x300)
			// finishes immediately
		},
		func(ctx *CoreCtx) {
			for i := 0; i < 30; i++ {
				ctx.LoadI32(memdata.Addr(0x1000 + i*64))
			}
			ctx.Barrier()
			ctx.LoadI32(0x400)
		},
	}
	Run(h, kernels) // must not deadlock
}

func TestGangWorkAccounting(t *testing.T) {
	rec := trace.NewRecorder(1)
	h, _ := testHierarchy(1, rec)
	Run(h, []func(*CoreCtx){func(ctx *CoreCtx) {
		ctx.Work(25)
		ctx.LoadI32(0x100)
	}})
	if rec.Cores[0][0].Gap != 25 {
		t.Errorf("gap = %d", rec.Cores[0][0].Gap)
	}
}

// rotationOrder runs a scripted four-core run covering every rotation rule
// at once and returns its global access order as "core op addr" strings,
// read back from the trace recorder's order index. The script has two
// barrier groups ({0,1} and {2,3}), uneven kernel lengths, a group completed
// mid-rotation (2 arrives after 3), a core that finishes early (2), a kernel
// crash between accesses (3), and a phase where core 1 is the only runnable
// core (0 parked at the group-0 barrier, 2 and 3 retired). Each core
// alternates loads and stores over its own lines.
func rotationOrder(t *testing.T) []string {
	t.Helper()
	access := func(c *CoreCtx, n int) {
		for i := 0; i < n; i++ {
			addr := memdata.Addr(0x1000*(c.Core()+1) + 0x40*i)
			if i%2 == 0 {
				c.LoadI32(addr)
			} else {
				c.StoreI32(addr, int32(i))
			}
		}
	}
	kernels := []func(*CoreCtx){
		func(c *CoreCtx) { access(c, 3); c.Barrier(); access(c, 2) },
		func(c *CoreCtx) { access(c, 11); c.Barrier(); access(c, 4) },
		func(c *CoreCtx) { access(c, 4); c.Barrier(); access(c, 1) },
		func(c *CoreCtx) { access(c, 2); c.Barrier(); access(c, 3); panic("scripted crash") },
	}
	rec := trace.NewRecorder(4)
	h, _ := testHierarchy(4, rec)
	err := RunGroupedContext(context.Background(), h, kernels, []int{0, 0, 1, 1})
	if err == nil || !strings.Contains(err.Error(), "kernel 3 panicked: scripted crash") {
		t.Fatalf("err = %v, want kernel 3's scripted crash", err)
	}
	cur, err := rec.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for core, r := cur.Next(); r != nil; core, r = cur.Next() {
		op := "L"
		if r.Write {
			op = "S"
		}
		got = append(got, fmt.Sprintf("%d %s %#x", core, op, uint64(r.Addr)))
	}
	return got
}

// TestGangRotationOrderGolden pins the exact interleaving of the script.
// Final-value tests cannot see a reordering that happens to commute; this
// literal was recorded from the earlier channel token-ring scheduler, so
// the coroutine scheduler reproduces that ring's rotation access for access.
func TestGangRotationOrderGolden(t *testing.T) {
	want := []string{
		"0 L 0x1000", "1 L 0x2000", "2 L 0x3000", "3 L 0x4000",
		"0 S 0x1040", "1 S 0x2040", "2 S 0x3040", "3 S 0x4040",
		// 3 reaches the group-1 barrier.
		"0 L 0x1080", "1 L 0x2080", "2 L 0x3080",
		// 0 reaches the group-0 barrier.
		"1 S 0x20c0", "2 S 0x30c0",
		// 2 completes group 1, which is released only at the rotation
		// boundary, so 3 stays parked for the rest of this rotation.
		"1 L 0x2100",
		"1 S 0x2140", "2 L 0x3000", "3 L 0x4000",
		// 2 finishes and retires at its own slot.
		"1 L 0x2180", "3 S 0x4040",
		"1 S 0x21c0", "3 L 0x4080",
		// 3 crashes and retires at its own slot.
		"1 L 0x2200",
		// 1 is the only runnable core until it reaches the barrier.
		"1 S 0x2240", "1 L 0x2280",
		// Group 0 released.
		"0 L 0x1000", "1 L 0x2000", "0 S 0x1040", "1 S 0x2040",
		// 0 retires; 1 runs alone to the end.
		"1 L 0x2080", "1 S 0x20c0",
	}
	got := rotationOrder(t)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("rotation order changed:\n got %q\nwant %q", got, want)
	}
}

// TestGangTurnZeroAlloc guards the cost of a live turn: a run with four
// times the accesses must allocate no more than the shorter run, so the
// per-run set-up is the only allocation and a turn costs none.
func TestGangTurnZeroAlloc(t *testing.T) {
	h, _ := testHierarchy(4, nil)
	allocs := func(accesses int) float64 {
		kernels := make([]func(*CoreCtx), 4)
		for c := range kernels {
			kernels[c] = func(ctx *CoreCtx) {
				for i := 0; i < accesses; i++ {
					addr := memdata.Addr(0x1000*(ctx.Core()+1) + 0x40*(i%4))
					ctx.StoreI32(addr, ctx.LoadI32(addr)+1)
				}
				ctx.Barrier()
			}
		}
		return testing.AllocsPerRun(20, func() { Run(h, kernels) })
	}
	short, long := allocs(250), allocs(1000)
	if long > short {
		t.Errorf("a run of 4x the accesses allocates %.0f objects, the short run %.0f: a turn allocates", long, short)
	}
}

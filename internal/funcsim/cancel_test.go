package funcsim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"doppelganger/internal/memdata"
)

// waitForGoroutines polls until the goroutine count drops back to at most
// want. A run unwinds its kernels before returning, but an exiting
// goroutine can still be counted for a few scheduler ticks.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: %d > %d\n%s",
		runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
}

// TestGangContextCancelUnblocksKernels proves cooperative cancellation: a
// cancel arriving mid-run makes RunGroupedContext return ctx.Err() promptly
// and unwinds every kernel, including ones parked at a barrier that will
// never be released.
func TestGangContextCancelUnblocksKernels(t *testing.T) {
	before := runtime.NumGoroutine()
	h, _ := testHierarchy(3, nil)
	ctx, cancel := context.WithCancel(context.Background())
	kernels := []func(*CoreCtx){
		func(c *CoreCtx) { // spins until cancelled
			for i := 0; ; i++ {
				c.LoadI32(memdata.Addr(0x1000 + (i%64)*64))
			}
		},
		func(c *CoreCtx) { // parks at a barrier core 0 never reaches
			c.LoadI32(0x100)
			c.Barrier()
		},
		func(c *CoreCtx) {
			c.LoadI32(0x200)
			c.Barrier()
		},
	}
	errCh := make(chan error, 1)
	go func() { errCh <- RunGroupedContext(ctx, h, kernels, nil) }()
	time.Sleep(20 * time.Millisecond) // let the run get going
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not stop the run")
	}
	waitForGoroutines(t, before)
}

// TestGangContextPreCancelled verifies a run under an already-cancelled
// context returns immediately without leaking the kernel coroutines it
// created.
func TestGangContextPreCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	h, _ := testHierarchy(2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := RunGroupedContext(ctx, h, []func(*CoreCtx){
		func(c *CoreCtx) {
			for i := 0; ; i++ {
				c.LoadI32(memdata.Addr(0x1000 + (i%64)*64))
			}
		},
		func(c *CoreCtx) { c.Barrier() },
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitForGoroutines(t, before)
}

// TestGangContextBackgroundMatchesRun verifies the context path with a
// non-cancellable context is behaviourally identical to Run: results match
// exactly.
func TestGangContextBackgroundMatchesRun(t *testing.T) {
	run := func(useCtx bool) int32 {
		h, st := testHierarchy(2, nil)
		kernels := []func(*CoreCtx){
			func(c *CoreCtx) {
				for i := 0; i < 50; i++ {
					c.StoreI32(0x100, c.LoadI32(0x100)+1)
				}
			},
			func(c *CoreCtx) {
				for i := 0; i < 50; i++ {
					c.StoreI32(0x100, c.LoadI32(0x100)*2%1000)
				}
			},
		}
		if useCtx {
			if err := RunGroupedContext(context.Background(), h, kernels, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			Run(h, kernels)
		}
		h.Flush()
		return st.ReadI32(0x100)
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("context path diverged: %d vs %d", a, b)
	}
}

// TestGangKernelPanicBecomesError verifies a crashing kernel fails the run,
// not the process: RunGroupedContext returns an error naming the core and
// carrying the panic stack, the other kernels complete normally (including
// their barriers — the crashed core counts as finished), and no goroutines
// leak.
func TestGangKernelPanicBecomesError(t *testing.T) {
	before := runtime.NumGoroutine()
	h, _ := testHierarchy(3, nil)
	survivors := make([]bool, 3)
	err := RunGroupedContext(context.Background(), h, []func(*CoreCtx){
		func(c *CoreCtx) {
			c.LoadI32(0x100)
			panic("synthetic kernel crash")
		},
		func(c *CoreCtx) {
			for i := 0; i < 20; i++ {
				c.LoadI32(memdata.Addr(0x1000 + i*64))
			}
			c.Barrier()
			survivors[1] = true
		},
		func(c *CoreCtx) {
			c.LoadI32(0x200)
			c.Barrier()
			survivors[2] = true
		},
	}, nil)
	if err == nil {
		t.Fatal("kernel panic was swallowed")
	}
	for _, want := range []string{"kernel 0", "synthetic kernel crash", "cancel_test.go"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if !survivors[1] || !survivors[2] {
		t.Errorf("surviving kernels did not finish: %v", survivors)
	}
	waitForGoroutines(t, before)
}

// TestGangPanicReRaisedWithoutContext verifies the non-context entry point
// re-raises a captured kernel panic on the caller's goroutine, where a
// recover (the sweep memo's shield) can convert it to a task error.
func TestGangPanicReRaisedWithoutContext(t *testing.T) {
	h, _ := testHierarchy(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("kernel panic was not re-raised to the caller")
		}
	}()
	Run(h, []func(*CoreCtx){func(c *CoreCtx) {
		c.LoadI32(0x100)
		panic("boom")
	}})
}

// TestGangContextCancelLoneCore cancels a run while exactly one core is
// runnable: the others have finished, so the spinning core never hands its
// turn over and must notice the cancellation itself between accesses.
func TestGangContextCancelLoneCore(t *testing.T) {
	before := runtime.NumGoroutine()
	h, _ := testHierarchy(3, nil)
	ctx, cancel := context.WithCancel(context.Background())
	alone := make(chan struct{})
	kernels := []func(*CoreCtx){
		func(c *CoreCtx) {
			for i := 0; ; i++ {
				c.LoadI32(memdata.Addr(0x1000 + (i%64)*64))
				if i == 100 {
					close(alone) // cores 1 and 2 retired long ago
				}
			}
		},
		func(c *CoreCtx) { c.LoadI32(0x100) },
		func(c *CoreCtx) { c.LoadI32(0x200) },
	}
	errCh := make(chan error, 1)
	go func() { errCh <- RunGroupedContext(ctx, h, kernels, nil) }()
	<-alone
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not stop the lone core")
	}
	waitForGoroutines(t, before)
}

// TestGangNoGoroutineLeak checks that the goroutine count returns to its
// baseline after each way a run can end: normal completion, a kernel
// panic, and cancellation.
func TestGangNoGoroutineLeak(t *testing.T) {
	spin := func(c *CoreCtx) {
		for i := 0; ; i++ {
			c.LoadI32(memdata.Addr(0x1000 + (i%64)*64))
		}
	}
	short := func(c *CoreCtx) {
		c.LoadI32(0x100)
		c.Barrier()
		c.LoadI32(0x200)
	}
	crash := func(c *CoreCtx) {
		c.LoadI32(0x300)
		panic("synthetic kernel crash")
	}
	for _, tc := range []struct {
		name    string
		kernels []func(*CoreCtx)
		cancel  bool
		wantErr string // empty for a clean run
	}{
		{"complete", []func(*CoreCtx){short, short, short}, false, ""},
		{"panic", []func(*CoreCtx){short, crash, short}, false, "synthetic kernel crash"},
		{"cancel", []func(*CoreCtx){spin, short, short}, true, context.Canceled.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			h, _ := testHierarchy(len(tc.kernels), nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				time.AfterFunc(10*time.Millisecond, cancel)
			}
			err := RunGroupedContext(ctx, h, tc.kernels, nil)
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			waitForGoroutines(t, before)
		})
	}
}

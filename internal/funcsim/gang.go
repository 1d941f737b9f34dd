//go:build go1.23

package funcsim

import (
	"context"
	"fmt"
	"iter"
	"runtime/debug"

	"doppelganger/internal/memdata"
)

// The gang serializes memory accesses by running every kernel as an
// iter.Pull coroutine driven from the caller's goroutine. Exactly one kernel
// runs at a time, so the running kernel holds the turn implicitly. A turn
// ends in pass: the kernel computes the next runnable core itself and, when
// that is another core, yields to the run loop, which resumes that core.
// That is two coroutine switches per turn, and a phase where one core is the
// only runnable one costs none at all: the lone core never yields.
//
// The rotation is round-robin, one turn per live core per rotation. Barrier
// groups are released exactly at rotation boundaries, and a finished or
// crashed core is retired at its own rotation slot, so the deterministic
// interleaving, and therefore every simulated result, does not depend on how
// the turns are handed over.
//
// All bookkeeping (doneFlags, atBarrier, live counts, the first panic) is
// touched only by the running kernel or by the run loop between resumes, and
// a coroutine switch orders the two, so none of it needs a lock.
type gang struct {
	ctxs      []*CoreCtx
	doneFlags []bool
	atBarrier []bool
	live      int
	// cur is the core the run loop resumes next; the kernel ending its turn
	// sets it before yielding or retiring.
	cur int
	// Scratch for releaseReadyGroups, indexed by barrier group.
	liveInGroup []int
	waitInGroup []int
	// done is the run context's Done channel, nil for a non-cancellable run.
	done <-chan struct{}
	// canceled records that a kernel unwound on cancellation.
	canceled bool
	// panicErr is the first kernel crash, with that kernel's stack.
	panicErr error
}

// nextRunnable returns the core whose turn follows from's: the next live,
// non-waiting core in rotation order. Crossing the end of the core list is
// the rotation boundary, where barrier groups whose live cores are all
// waiting get released. While any core is live some core is runnable: if
// every live core is waiting, each group with a waiting core has all its
// live cores waiting, so the boundary releases it.
func (g *gang) nextRunnable(from int) int {
	for i := from + 1; i < len(g.ctxs); i++ {
		if !g.doneFlags[i] && !g.atBarrier[i] {
			return i
		}
	}
	g.releaseReadyGroups()
	for i := range g.ctxs {
		if !g.doneFlags[i] && !g.atBarrier[i] {
			return i
		}
	}
	panic("funcsim: no runnable core while cores are live")
}

// releaseReadyGroups releases every barrier group whose live cores have all
// reached the barrier. A released core resumes at its next rotation slot.
func (g *gang) releaseReadyGroups() {
	for i := range g.liveInGroup {
		g.liveInGroup[i], g.waitInGroup[i] = 0, 0
	}
	for i, c := range g.ctxs {
		if g.doneFlags[i] {
			continue
		}
		g.liveInGroup[c.group]++
		if g.atBarrier[i] {
			g.waitInGroup[c.group]++
		}
	}
	for grp, waiting := range g.waitInGroup {
		if waiting == 0 || waiting != g.liveInGroup[grp] {
			continue
		}
		for i, c := range g.ctxs {
			if c.group == grp {
				g.atBarrier[i] = false
			}
		}
	}
}

// kernel wraps core i's kernel as a coroutine body. A kernel that returns or
// crashes is retired at the slot where it stopped running, which is its own
// rotation slot. A crash is recovered here, on the kernel's own stack, so
// the error carries that stack; a crashed core counts as finished, so its
// barrier group is not stranded.
func (g *gang) kernel(i int, k func(*CoreCtx)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		c := g.ctxs[i]
		c.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(runCanceled); ok {
					g.canceled = true
					return
				}
				if g.panicErr == nil { // keep the first crash's stack
					g.panicErr = fmt.Errorf("funcsim: kernel %d panicked: %v\n%s", i, r, debug.Stack())
				}
			}
			g.doneFlags[i] = true
			g.live--
			if g.live > 0 {
				g.cur = g.nextRunnable(i)
			}
		}()
		k(c)
	}
}

// CoreCtx is the per-core handle a workload kernel uses to touch memory.
// Kernels run as coroutines, and every memory access takes one turn of a
// deterministic round-robin rotation, so functional results (and therefore
// application error) are reproducible run-to-run.
type CoreCtx struct {
	id    int
	group int // barrier group (program id in multiprogrammed runs)
	h     *Hierarchy
	g     *gang
	// yield suspends this kernel's coroutine and returns control to the
	// run loop; it reports false once the run is cancelled.
	yield func(struct{}) bool
}

// runCanceled is the panic a kernel unwinds with when the run's context is
// cancelled; the coroutine wrapper recovers it. Kernels are suspended in
// the middle of their code, so panic-unwind is the only way to free them
// without threading a context through every workload kernel.
type runCanceled struct{}

// Core returns the core id of this context.
func (c *CoreCtx) Core() int { return c.id }

// pass ends this core's turn. When another core is next it yields until the
// rotation comes back round; when this core is itself the next runnable
// one it keeps running, polling cancellation because the run loop does not
// get control in between. A cancelled run unwinds the kernel.
func (c *CoreCtx) pass() {
	g := c.g
	next := g.nextRunnable(c.id)
	if next == c.id {
		if g.done != nil {
			select {
			case <-g.done:
				panic(runCanceled{})
			default:
			}
		}
		return
	}
	g.cur = next
	if !c.yield(struct{}{}) {
		panic(runCanceled{})
	}
}

// Work accounts n non-memory instructions (arithmetic between accesses).
// It only touches this core's trace state, so no turn is needed.
func (c *CoreCtx) Work(n int) {
	if c.h.rec != nil {
		c.h.rec.Work(c.id, n)
	}
}

// Barrier blocks until every live core in this core's barrier group has
// reached a Barrier call, mirroring the pthread barriers of the paper's
// data-parallel benchmarks. Cores that have already finished do not
// participate; in multiprogrammed runs each program is its own group.
// Reaching the barrier takes a turn; the run loop resumes the core only once
// its group has been released.
func (c *CoreCtx) Barrier() {
	c.g.atBarrier[c.id] = true
	c.pass()
}

// LoadF32 reads a float32 through the hierarchy.
func (c *CoreCtx) LoadF32(addr memdata.Addr) float32 {
	v := c.h.LoadF32(c.id, addr)
	c.pass()
	return v
}

// StoreF32 writes a float32 through the hierarchy.
func (c *CoreCtx) StoreF32(addr memdata.Addr, v float32) {
	c.h.StoreF32(c.id, addr, v)
	c.pass()
}

// LoadF64 reads a float64 through the hierarchy.
func (c *CoreCtx) LoadF64(addr memdata.Addr) float64 {
	v := c.h.LoadF64(c.id, addr)
	c.pass()
	return v
}

// StoreF64 writes a float64 through the hierarchy.
func (c *CoreCtx) StoreF64(addr memdata.Addr, v float64) {
	c.h.StoreF64(c.id, addr, v)
	c.pass()
}

// LoadI32 reads an int32 through the hierarchy.
func (c *CoreCtx) LoadI32(addr memdata.Addr) int32 {
	v := c.h.LoadI32(c.id, addr)
	c.pass()
	return v
}

// StoreI32 writes an int32 through the hierarchy.
func (c *CoreCtx) StoreI32(addr memdata.Addr, v int32) {
	c.h.StoreI32(c.id, addr, v)
	c.pass()
}

// LoadU8 reads a byte through the hierarchy.
func (c *CoreCtx) LoadU8(addr memdata.Addr) uint8 {
	v := c.h.LoadU8(c.id, addr)
	c.pass()
	return v
}

// StoreU8 writes a byte through the hierarchy.
func (c *CoreCtx) StoreU8(addr memdata.Addr, v uint8) {
	c.h.StoreU8(c.id, addr, v)
	c.pass()
}

// Run executes one kernel per core in lockstep: memory accesses are granted
// round-robin, one per live core per rotation, so the interleaving (and thus
// all cache contents) is deterministic. Run returns when every kernel has
// finished. All cores share one barrier group.
func Run(h *Hierarchy, kernels []func(*CoreCtx)) {
	RunGrouped(h, kernels, nil)
}

// RunGrouped is Run with explicit barrier groups: groups[i] is core i's
// group, and a Barrier call only rendezvouses with live cores of the same
// group. Multiprogrammed runs give each program its own group so one
// program's barriers never wait on another's cores. A nil groups slice puts
// every core in group 0.
func RunGrouped(h *Hierarchy, kernels []func(*CoreCtx), groups []int) {
	if err := RunGroupedContext(context.Background(), h, kernels, groups); err != nil {
		// A background context is never cancelled, so the only possible error
		// is a captured kernel panic: re-raise it on the caller's goroutine,
		// where it is recoverable (the sweep memo turns it into a task error).
		panic(err)
	}
}

// cancelPoll is how many turns the run loop runs between polls of the run's
// context. A lone runnable core polls on every access instead.
const cancelPoll = 4096

// RunGroupedContext is RunGrouped with cooperative cancellation and panic
// containment. The kernels run on coroutines driven from the calling
// goroutine. When ctx is cancelled the run loop stops every coroutine, each
// suspended kernel unwinds, and ctx.Err() is returned with no goroutine
// left behind; the simulation state is then abandoned mid-flight (callers
// discard it). A kernel that panics is captured on its own stack and
// returned as an error carrying that stack — the crash fails this run,
// never the process; the remaining kernels complete normally.
func RunGroupedContext(ctx context.Context, h *Hierarchy, kernels []func(*CoreCtx), groups []int) error {
	n := len(kernels)
	if n == 0 {
		return nil
	}
	maxGroup := 0
	for _, grp := range groups {
		maxGroup = max(maxGroup, grp)
	}
	g := &gang{
		ctxs:        make([]*CoreCtx, n),
		doneFlags:   make([]bool, n),
		atBarrier:   make([]bool, n),
		live:        n,
		liveInGroup: make([]int, maxGroup+1),
		waitInGroup: make([]int, maxGroup+1),
		done:        ctx.Done(),
	}
	resume := make([]func() (struct{}, bool), n)
	stops := make([]func(), n)
	for i, k := range kernels {
		g.ctxs[i] = &CoreCtx{id: i, h: h, g: g}
		if groups != nil {
			g.ctxs[i].group = groups[i]
		}
		resume[i], stops[i] = iter.Pull(g.kernel(i, k))
	}
	// On normal completion every coroutine has already returned and stop is
	// a no-op; on cancellation it makes each suspended kernel's yield report
	// false, so the kernel unwinds before the call returns.
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	// Core 0 takes the first turn.
	for turn := 0; g.live > 0; turn++ {
		if g.canceled || g.done != nil && turn%cancelPoll == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		resume[g.cur]()
	}
	return g.panicErr
}

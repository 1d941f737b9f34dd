package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Grid names the simulation points of the evaluation. Prewarm expands it
// into one baseline task per benchmark plus one task per functional or
// timing run, with every variant task depending on its benchmark's
// baseline (the traces it replays and the precise output it scores
// against).
type Grid struct {
	// Benchmarks restricts the grid (nil: the Runner's suite).
	Benchmarks []string
	// MapSpaces adds split runs at (m, BaseDataFrac) per map size (Fig 9).
	MapSpaces []int
	// DataFracs adds split runs at (BaseMapBits, frac) per data fraction
	// (Figs 10–12).
	DataFracs []float64
	// UniFracs adds uniDoppelgänger runs at (BaseMapBits, frac) (Fig 14).
	UniFracs []float64
	// Extras adds the extension configurations (alternative hashes,
	// tag-count-aware replacement, compressed data array).
	Extras bool
	// Faults adds fault-injection runs per organization and rate. Like
	// Extras it is explicit-only: FullGrid never enables it, because fault
	// runs triple the functional workload and only the fault-sweep table
	// reads them.
	Faults bool
	// Quality adds guarded fault-injection runs (functional plus two timing
	// replays) per guarded organization and rate, and the unguarded fault
	// runs the quality table's guard-off column reads. Explicit-only, like
	// Faults.
	Quality bool
}

// FullGrid covers every simulation the paper's tables and figures need.
func FullGrid(extras bool) Grid {
	return Grid{MapSpaces: MapSpaces, DataFracs: DataFracs, UniFracs: UniFracs, Extras: extras}
}

// GridFor returns the smallest grid covering the named experiments (see
// Experiments), so a partial run only simulates what its tables render.
// Unknown names conservatively widen to the full grid.
func GridFor(names ...string) Grid {
	var g Grid
	for _, n := range names {
		x, ok := experimentNamed(n)
		if !ok {
			return FullGrid(true)
		}
		if x.grid != nil {
			x.grid(&g)
		}
	}
	return g
}

// cells enumerates one benchmark's variant cells in engine order. A cell
// several experiments share appears more than once; the engine keeps the
// first.
func (g Grid) cells(name string, rates []float64) []Cell {
	var cs []Cell
	pair := func(family string, m int, frac float64) {
		cs = append(cs, Cell{Kind: family + "-error", Bench: name, M: m, Frac: frac},
			Cell{Kind: family + "-timing", Bench: name, M: m, Frac: frac})
	}
	for _, m := range g.MapSpaces {
		pair("split", m, BaseDataFrac)
	}
	for _, frac := range g.DataFracs {
		pair("split", BaseMapBits, frac)
	}
	for _, frac := range g.UniFracs {
		pair("uni", BaseMapBits, frac)
	}
	if g.Extras {
		pair("split", BaseMapBits, BaseDataFrac) // the column every extra is compared against
		for _, x := range extrasConfigs() {
			cs = append(cs, Cell{Kind: x.kind, Bench: name, Org: x.tag})
		}
	}
	if g.Faults || g.Quality {
		for _, org := range FaultOrgs {
			for _, rate := range rates {
				cs = append(cs, Cell{Kind: "fault-error", Bench: name, Org: org, Rate: rate})
			}
		}
	}
	if g.Quality {
		for _, org := range GuardedOrgs {
			for _, rate := range rates {
				q := Cell{Kind: "quality-error", Bench: name, Org: org, Rate: rate}
				off := Cell{Kind: "quality-timing", Bench: name, Org: org, Rate: rate}
				on := off
				on.Guarded = true
				cs = append(cs, q, off, on)
			}
		}
	}
	return cs
}

// task is one node of the engine's dependency graph: a unit of simulation
// work that becomes runnable once every dependency has finished.
type task struct {
	label      string
	run        func(ctx context.Context) error
	waiting    int // unfinished dependencies
	dependents []*task
	skip       bool // a dependency failed; don't run
}

// Prewarm expands the grid into a dependency-aware task graph and executes
// it on a pool of r.Workers goroutines (0: GOMAXPROCS). Every task lands in
// the Runner's singleflight caches, so the table builders afterwards only
// format already-computed results — in the same deterministic benchmark
// order as a serial run, with bit-identical values (each simulation owns
// all its mutable state; scheduling order cannot reach it).
//
// On failure the first errors are returned joined; tasks downstream of a
// failed baseline are skipped.
func (r *Runner) Prewarm(g Grid) error {
	return r.PrewarmContext(context.Background(), g)
}

// PrewarmContext is Prewarm under a cancellable context: cancellation stops
// new tasks from starting, interrupts in-flight simulations at their next
// scheduling point, and returns once every worker has drained.
func (r *Runner) PrewarmContext(ctx context.Context, g Grid) error {
	benchmarks := g.Benchmarks
	if benchmarks == nil {
		benchmarks = r.Benchmarks()
	}
	var tasks []*task
	add := func(parent *task, label string, run func(ctx context.Context) error) *task {
		t := &task{label: label, run: run}
		if parent != nil {
			t.waiting = 1
			parent.dependents = append(parent.dependents, t)
		}
		tasks = append(tasks, t)
		return t
	}
	cellTask := func(c Cell) func(ctx context.Context) error {
		return func(ctx context.Context) error {
			_, err := r.RunCell(ctx, c)
			return err
		}
	}
	for _, name := range benchmarks {
		base := add(nil, baseline(name).Key(), cellTask(baseline(name)))
		var batch *task
		seen := map[string]bool{}
		for _, c := range g.cells(name, r.faultRates()) {
			if seen[c.Key()] {
				continue
			}
			seen[c.Key()] = true
			parent := base
			if c.Kind == "quality-error" && r.batchEnabled() {
				// One planner task replays every group of identical-stream
				// guarded cells in a single pass; the per-cell error tasks run
				// after it and find their outcomes memoized (or compute
				// sequentially whatever the batch could not serve).
				if batch == nil {
					batch = add(base, name+"/quality-batch", func(ctx context.Context) error {
						return r.runQualityBatch(ctx, name)
					})
				}
				parent = batch
			}
			add(parent, c.Key(), cellTask(c))
		}
	}
	return r.runTasks(ctx, tasks)
}

// runTasks drains a task graph through a bounded worker pool: tasks with no
// unfinished dependencies sit in the ready queue; finishing a task releases
// its dependents. Progress is reported through the Runner's serialized log
// as "[done/total]" lines. Errors do not stop independent work, but a
// cancelled context fails every task not yet started without running it.
func (r *Runner) runTasks(ctx context.Context, tasks []*task) error {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if len(tasks) == 0 {
		return nil
	}

	// Buffered to the graph size so completions never block on the queue
	// while holding the scheduler lock.
	ready := make(chan *task, len(tasks))
	var (
		mu      sync.Mutex
		errs    []error
		pending = len(tasks)
		done    int
		drained bool // ready has been closed
	)
	// completeLocked retires a task (run or skipped) and releases any
	// dependents that become ready; called with mu held.
	var completeLocked func(t *task, failed bool)
	completeLocked = func(t *task, failed bool) {
		done++
		pending--
		for _, d := range t.dependents {
			if failed {
				d.skip = true
			}
			d.waiting--
			if d.waiting == 0 {
				if d.skip {
					r.logf("[%d/%d] skip %s (dependency failed)", done+1, len(tasks), d.label)
					completeLocked(d, true)
				} else {
					ready <- d
				}
			}
		}
		// The skip cascade recurses through completeLocked, so an inner
		// frame may already have drained the graph.
		if pending == 0 && !drained {
			drained = true
			close(ready)
		}
	}

	for _, t := range tasks {
		if t.waiting == 0 {
			ready <- t
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ready {
				start := time.Now()
				err := ctx.Err()
				if err == nil {
					err = r.runTask(ctx, t)
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("%s: %w", t.label, err))
					r.logf("[%d/%d] FAIL %s: %v", done+1, len(tasks), t.label, err)
				} else {
					r.logf("[%d/%d] done %s (%.2fs)", done+1, len(tasks), t.label, time.Since(start).Seconds())
				}
				completeLocked(t, err != nil)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runTask executes one task with the Runner's bounded-retry policy: a
// failure retries up to r.Retries times with exponentially growing backoff
// (RetryBackoff, default 250 ms, doubling per attempt). Retries make sense
// because failed keys are forgotten by the memo caches, so a retry really
// recomputes. Cancellation short-circuits both the retries and the backoff
// sleep.
func (r *Runner) runTask(ctx context.Context, t *task) error {
	backoff := r.RetryBackoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = r.runOnce(ctx, t)
		if err == nil || attempt >= r.Retries || ctx.Err() != nil {
			return err
		}
		r.logf("[retry %d/%d] %s: %v (backing off %s)", attempt+1, r.Retries, t.label, err, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return err
		}
		backoff *= 2
	}
}

// runOnce is a single attempt: the task runs under the per-task deadline
// (TaskTimeout, when set) and behind a panic shield, so a crashing
// simulation fails its own task with the stack attached instead of killing
// the whole sweep process.
func (r *Runner) runOnce(ctx context.Context, t *task) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	if r.TaskTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.TaskTimeout)
		defer cancel()
	}
	return t.run(ctx)
}

package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"emuchick/internal/metrics"
	"emuchick/internal/sim"
)

// The experiment layer parallelizes at the level of independent simulations:
// every (series × sweep-point × trial) cell of a figure builds its own
// System, so cells can run on any OS thread in any order. Determinism is
// preserved by construction — each cell writes its result into a slot
// chosen by cell index, never by arrival order, so assembled figures are
// byte-identical to a sequential run.

// parallelism resolves an Options.Parallel value to a worker count. An
// attached observer forces one worker: concurrent cells would interleave
// their event streams, and determinism makes the results identical anyway.
func (o Options) parallelism() int {
	if o.Observer != nil {
		return 1
	}
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// interrupted reports the cancellation error of the run's context, if any.
func (o Options) interrupted() error {
	if o.ctx == nil {
		return nil
	}
	return o.ctx.Err()
}

// parallelFor runs fn(i) for every i in [0, n) across the option's worker
// count and returns the lowest-indexed error, if any. Workers pull indices
// from a shared counter; results must be slotted by index inside fn.
func parallelFor(o Options, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	// A context cancelled before the loop starts runs zero cells: without
	// this check each worker would evaluate one cell before noticing.
	if err := o.interrupted(); err != nil {
		return err
	}
	workers := o.parallelism()
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := o.interrupted(); err != nil {
				errs[i] = err
				break
			}
			errs[i] = guard(fn, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if err := o.interrupted(); err != nil {
						errs[i] = err
						return
					}
					errs[i] = guard(fn, i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CellPanicError is a panic recovered from one sweep cell, converted into an
// ordinary error so a worker goroutine never takes the whole process down.
// It carries the flat cell index and the stack captured at the panic site.
type CellPanicError struct {
	Cell  int
	Value any
	Stack []byte
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("experiments: cell %d panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}

// Unwrap exposes a panicked error value to errors.Is/As chains; non-error
// panic values unwrap to nothing.
func (e *CellPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// guard runs fn(i), converting any recovered panic — error or not — into a
// returned *CellPanicError. Before this existed for every value, a non-error
// panic re-raised on a worker goroutine and killed the process with no
// indication of which cell died.
func guard(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CellPanicError{Cell: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// sweep is the shape shared by nearly every figure runner: a dense
// series × points × trials matrix of independent simulations, fanned across
// the worker pool and aggregated into per-point trial statistics in
// deterministic (series, point, trial) order.
type sweep struct {
	series, points, trials int
}

// assemble builds labelled series from a sweep's slotted results, one
// series per name, one point per x.
func assemble(names []string, xs []float64, stats [][]metrics.Stats) []*metrics.Series {
	out := make([]*metrics.Series, len(names))
	for si, name := range names {
		s := &metrics.Series{Name: name}
		for pi, x := range xs {
			s.Add(x, stats[si][pi])
		}
		out[si] = s
	}
	return out
}

// xsOf widens an integer sweep axis to the float64 x positions of a figure.
func xsOf(vals []int) []float64 {
	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = float64(v)
	}
	return xs
}

// eventBudget is the watchdog's deterministic backstop: a cap on dispatched
// engine events per cell, sized an order of magnitude above what the largest
// healthy cell of each scale fires. Wall clocks vary with machine load; the
// event count of a runaway simulation does not.
func eventBudget(quick bool) uint64 {
	if quick {
		return 1 << 26
	}
	return 1 << 30
}

// withWatchdog derives the per-attempt Options for one cell: with the
// watchdog armed, the cell gets its own deadline context (layered on the
// run's context, so outer cancellation still wins) and the scale-derived
// event budget. The caller must invoke the returned cancel when the attempt
// finishes.
func (o Options) withWatchdog() (Options, context.CancelFunc) {
	if o.CellTimeout <= 0 {
		return o, func() {}
	}
	parent := o.ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithTimeout(parent, o.CellTimeout)
	o.ctx = ctx
	if o.maxEvents == 0 {
		o.maxEvents = eventBudget(o.Quick)
	}
	return o, cancel
}

// runCell evaluates one cell under the watchdog and retry policy. It
// returns exactly one of:
//   - (v, nil, nil): the cell produced a result;
//   - (_, failure, nil): the cell failed terminally (deterministic engine
//     death, or watchdog kills through every retry) — the sweep records the
//     failure and continues with a NaN hole;
//   - (_, nil, err): the run must abort (outer cancellation, or an error the
//     policy does not own).
func runCell(o Options, eval func(Options, int, int, int) (float64, error), si, pi, trial int) (float64, *CellFailure, error) {
	attempts := 1
	if o.CellTimeout > 0 && o.Retries > 0 {
		attempts += o.Retries
	}
	var lastErr error
	for a := 1; a <= attempts; a++ {
		ao, cancel := o.withWatchdog()
		v, err := eval(ao, si, pi, trial)
		cancel()
		if err == nil {
			return v, nil, nil
		}
		lastErr = err
		// The run's own context ending (SIGINT, outer deadline) aborts the
		// sweep; the checkpoint already holds every finished cell.
		if pe := o.interrupted(); pe != nil {
			return 0, nil, pe
		}
		var re *sim.RunError
		if errors.As(err, &re) {
			switch re.Kind {
			case sim.FailDeadlock, sim.FailMaxEvents, sim.FailMaxTime:
				// Deterministic deaths: a retry replays the same simulation
				// to the same end, so record the post-mortem immediately.
				return 0, newCellFailure(a, err), nil
			}
		}
		if o.CellTimeout > 0 && errors.Is(err, context.DeadlineExceeded) {
			continue // watchdog kill: the cell gets another attempt
		}
		return 0, nil, err
	}
	return 0, newCellFailure(attempts, lastErr), nil
}

// run evaluates eval for every cell and returns per-point statistics
// slotted as out[series][point]. eval receives the per-attempt Options it
// must thread into the simulation it builds (KernelOptions carries the
// watchdog's deadline context and event budget).
//
// With a checkpoint open, completed cells are replayed from the log instead
// of re-simulated and fresh results are appended as they finish; terminal
// cell failures become NaN holes (surfacing as Stats.Failed counts and an
// Incomplete figure) rather than aborting the sweep.
func (g sweep) run(o Options, eval func(o Options, si, pi, trial int) (float64, error)) ([][]metrics.Stats, error) {
	if g.trials <= 0 {
		g.trials = 1
	}
	sweepIdx := 0
	if o.ckpt != nil {
		sweepIdx = o.ckpt.nextSweep()
	}
	vals := make([]float64, g.series*g.points*g.trials)
	err := parallelFor(o, len(vals), func(i int) error {
		si := i / (g.points * g.trials)
		pi := i / g.trials % g.points
		trial := i % g.trials
		if o.ckpt != nil {
			if v, ok := o.ckpt.Lookup(sweepIdx, i); ok {
				vals[i] = v
				return nil
			}
		}
		v, fail, err := runCell(o, eval, si, pi, trial)
		if err != nil {
			return err
		}
		if fail != nil {
			fail.Sweep, fail.Cell = sweepIdx, i
			fail.Series, fail.Point, fail.Trial = si, pi, trial
			if o.ckpt != nil {
				if err := o.ckpt.RecordFailure(fail); err != nil {
					return err
				}
			}
			vals[i] = math.NaN()
			return nil
		}
		vals[i] = v
		// A NaN result (a cell derived from a failed one, such as fig8's
		// chase over a failed STREAM peak) is a hole, not a record: JSON
		// cannot carry it, and a resume recomputes it.
		if o.ckpt != nil && !math.IsNaN(v) {
			return o.ckpt.Record(sweepIdx, i, v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]metrics.Stats, g.series)
	for si := range out {
		out[si] = make([]metrics.Stats, g.points)
		for pi := range out[si] {
			base := (si*g.points + pi) * g.trials
			out[si][pi] = metrics.Aggregate(vals[base : base+g.trials])
		}
	}
	return out, nil
}

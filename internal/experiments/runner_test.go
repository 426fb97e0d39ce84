package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"emuchick/internal/report"
)

// figureBytes marshals every figure an experiment produces into one JSON
// blob, the same encoding cmd/emubench archives.
func figureBytes(t *testing.T, id string, opts ...Option) []byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	figs, err := e.Run(opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, fig := range figs {
		if err := report.FigureJSON(&buf, fig); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestParallelRunnerByteIdentical is the tentpole's regression gate: the
// parallel worker pool must produce byte-identical figures to the
// sequential path, because results are slotted by cell index rather than
// arrival order.
func TestParallelRunnerByteIdentical(t *testing.T) {
	for _, id := range []string{"fig4", "fig6"} {
		seq := figureBytes(t, id, WithScale(QuickScale), WithTrials(2), WithParallel(1))
		par := figureBytes(t, id, WithScale(QuickScale), WithTrials(2), WithParallel(8))
		if !bytes.Equal(seq, par) {
			t.Errorf("%s: parallel run differs from sequential:\nseq: %s\npar: %s", id, seq, par)
		}
	}
}

func TestParallelForSlotsByIndex(t *testing.T) {
	const n = 100
	got := make([]int, n)
	err := parallelFor(Options{Parallel: 7}, n, func(i int) error {
		got[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestParallelForReturnsLowestIndexedError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := parallelFor(Options{Parallel: 4}, 10, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("err = %v, want %v", errA, err)
	}
}

// Worker goroutines must convert panicked errors into returned
// CellPanicErrors rather than crashing the process; the original error stays reachable via
// errors.Is through the wrapper.
func TestParallelForRecoversErrorPanics(t *testing.T) {
	boom := errors.New("boom")
	err := parallelFor(Options{Parallel: 4}, 8, func(i int) error {
		if i == 2 {
			panic(boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	var pe *CellPanicError
	if !errors.As(err, &pe) || pe.Cell != 2 {
		t.Fatalf("err = %#v, want CellPanicError for cell 2", err)
	}
}

// A non-error panic value used to re-raise on the worker goroutine and kill
// the whole process; it must come back as a CellPanicError naming the cell
// and carrying the stack captured at the panic site.
func TestParallelForRecoversNonErrorPanics(t *testing.T) {
	err := parallelFor(Options{Parallel: 4}, 8, func(i int) error {
		if i == 2 {
			panic("kaboom")
		}
		return nil
	})
	var pe *CellPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *CellPanicError", err, err)
	}
	if pe.Cell != 2 || pe.Value != any("kaboom") {
		t.Fatalf("got cell %d value %v, want cell 2 value kaboom", pe.Cell, pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic record missing stack or value: %v", err)
	}
	// The sequential path must be guarded the same way.
	err = parallelFor(Options{Parallel: 1}, 3, func(i int) error {
		if i == 1 {
			panic("seq-kaboom")
		}
		return nil
	})
	if !errors.As(err, &pe) || pe.Cell != 1 {
		t.Fatalf("sequential guard: err = %v, want CellPanicError for cell 1", err)
	}
}

func TestParallelForRunsEveryCellOnce(t *testing.T) {
	var count atomic.Int64
	if err := parallelFor(Options{Parallel: 3}, 57, func(int) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 57 {
		t.Fatalf("ran %d cells, want 57", count.Load())
	}
}

// Regression: a context cancelled before parallelFor started still let the
// pool spawn and each worker evaluate one cell before noticing; with a large
// index space and expensive cells that is real wasted simulation work. A
// pre-cancelled context must run zero cells, and a mid-run cancel must stop
// workers at their next pull rather than draining the index space.
func TestParallelForPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var count atomic.Int64
	err := parallelFor(Options{Parallel: 4, ctx: ctx}, 1000, func(int) error {
		count.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count.Load() != 0 {
		t.Fatalf("pre-cancelled parallelFor ran %d cells, want 0", count.Load())
	}
}

func TestParallelForMidRunCancelStopsPulling(t *testing.T) {
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int64
	err := parallelFor(Options{Parallel: workers, ctx: ctx}, 1000, func(int) error {
		if count.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker may finish the cell it already pulled, but none may pull
	// again after the cancel: at most cancel-point + one cell per worker.
	if n := count.Load(); n > 3+workers {
		t.Fatalf("ran %d cells after a cancel at cell 3 with %d workers", n, workers)
	}
}

func TestSweepAggregatesTrialsInOrder(t *testing.T) {
	g := sweep{series: 2, points: 3, trials: 4}
	stats, err := g.run(Options{Parallel: 5}, func(o Options, si, pi, trial int) (float64, error) {
		return float64(si*1000 + pi*10 + trial), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || len(stats[0]) != 3 {
		t.Fatalf("shape = %dx%d", len(stats), len(stats[0]))
	}
	// Point (1,2): values 1020..1023 -> mean 1021.5, min 1020, max 1023.
	st := stats[1][2]
	if st.N != 4 || st.Mean != 1021.5 || st.Min != 1020 || st.Max != 1023 {
		t.Fatalf("stats[1][2] = %+v", st)
	}
}

// Package cpukernels implements the paper's benchmarks for the Xeon
// comparison platforms: STREAM ADD and pointer chasing on the Sandy Bridge
// model (sections IV-A/IV-B) and the three SpMV baselines — MKL-like,
// cilk_for-like, and grained cilk_spawn — on the Haswell model (IV-C).
// STREAM and SpMV verify their functional results; the chase, which
// carries no data, is held to its input by TestCPUChaseConservation.
package cpukernels

import (
	"context"
	"fmt"

	"emuchick/internal/metrics"
	"emuchick/internal/sim"
	"emuchick/internal/xeon"
)

// newSystem builds each run's platform. The golden tests wrap it to read
// the platform's end state after a run.
var newSystem = xeon.NewSystem

// RunOption arms the engine of the platform a kernel builds for one run,
// as kernels.WithContext and kernels.WithMaxEvents arm an Emu engine.
// Passing none arms nothing.
type RunOption func(*sim.Engine)

// WithContext aborts the run with a sim.RunError wrapping ctx's error
// within 1024 engine events of ctx ending.
func WithContext(ctx context.Context) RunOption {
	return func(e *sim.Engine) { e.Interrupt = ctx.Err }
}

// WithMaxEvents aborts the run with a sim.RunError once it has dispatched
// n engine events; 0 keeps the engine unlimited.
func WithMaxEvents(n uint64) RunOption {
	return func(e *sim.Engine) { e.MaxEvents = n }
}

// newRun builds a run's platform and applies the run's options.
func newRun(ccfg xeon.Config, opts []RunOption) *xeon.System {
	sys := newSystem(ccfg)
	for _, opt := range opts {
		opt(sys.Eng)
	}
	return sys
}

// StreamConfig parameterizes the CPU STREAM ADD run.
type StreamConfig struct {
	Elements int // array length
	Threads  int
}

// StreamAdd runs c[i] = a[i] + b[i] over 8-byte elements with contiguous
// per-thread partitions — the standard OpenMP/Cilk STREAM decomposition —
// and reports bandwidth at 24 bytes per element.
func StreamAdd(ccfg xeon.Config, cfg StreamConfig, opts ...RunOption) (metrics.Result, error) {
	if cfg.Elements <= 0 || cfg.Threads <= 0 {
		return metrics.Result{}, fmt.Errorf("cpukernels: invalid stream config %+v", cfg)
	}
	sys := newRun(ccfg, opts)
	n := int64(cfg.Elements)
	a := sys.Alloc(n * 8)
	b := sys.Alloc(n * 8)
	c := sys.Alloc(n * 8)

	av := make([]uint64, n)
	bv := make([]uint64, n)
	cv := make([]uint64, n)
	for i := range av {
		av[i] = uint64(i)
		bv[i] = uint64(2 * i)
	}

	elapsed, err := sys.Run(&task{d: &spawnTree{hi: cfg.Threads, worker: func(w int) xeon.CBody {
		lo, hi := share(cfg.Elements, w, cfg.Threads)
		return &streamWorker{a: a, b: b, c: c, av: av, bv: bv, cv: cv, i: int64(lo), hi: int64(hi)}
	}}})
	if err != nil {
		return metrics.Result{}, err
	}
	for i := range cv {
		if cv[i] != uint64(3*i) {
			return metrics.Result{}, fmt.Errorf("cpukernels: stream c[%d] = %d", i, cv[i])
		}
	}
	return metrics.Result{Bytes: n * 24, Elapsed: elapsed}, nil
}

// streamWorker adds elements [i, hi): two reads, a streaming store of the
// destination (as tuned STREAM does) and one cycle per element.
type streamWorker struct {
	a, b, c    int64 // model base addresses
	av, bv, cv []uint64
	i, hi      int64
	pc         uint8
}

func (w *streamWorker) Step(t *xeon.CThread) bool {
	for w.i < w.hi {
		switch w.pc {
		case 0:
			w.pc = 1
			if t.Read(w.a+w.i*8, 8) {
				return false
			}
		case 1:
			w.pc = 2
			if t.Read(w.b+w.i*8, 8) {
				return false
			}
		case 2:
			t.WriteNT(w.c+w.i*8, 8)
			w.cv[w.i] = w.av[w.i] + w.bv[w.i]
			w.pc = 0
			w.i++
			if t.Compute(1) {
				return false
			}
		}
	}
	return true
}

// share splits n items into parts pieces, mirroring kernels.share.
func share(n, rank, parts int) (lo, hi int) {
	if parts <= 0 {
		return 0, 0
	}
	base := n / parts
	rem := n % parts
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

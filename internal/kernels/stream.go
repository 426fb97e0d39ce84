// Package kernels implements the paper's four benchmarks against the Emu
// machine model: STREAM ADD with the four spawn strategies (section IV-A),
// block-shuffled pointer chasing (IV-B), CSR SpMV under three data layouts
// (IV-C), and the ping-pong migration microbenchmark (IV-D), plus a
// GUPS-style random-access kernel for comparison. Every kernel verifies its
// functional result against a reference computation before reporting a
// measurement.
package kernels

import (
	"fmt"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/metrics"
	"emuchick/internal/sim"
)

// streamOverheadCycles is the per-element loop overhead of the tuned STREAM
// ADD inner loop (index arithmetic, bounds test, branch) beyond its three
// memory operations.
const streamOverheadCycles = 8

// vector is any allocation addressable by element index; both
// memsys.Local and memsys.Striped satisfy it.
type vector interface {
	At(i int) memsys.Addr
}

// StreamKernel selects one of the four STREAM operations. The paper
// reports ADD; the other three complete McCalpin's suite over the same
// 8-byte integer arrays the Emu port uses.
type StreamKernel int

const (
	// StreamAddKernel computes c[i] = a[i] + b[i] (24 B/element).
	StreamAddKernel StreamKernel = iota
	// StreamCopyKernel computes c[i] = a[i] (16 B/element).
	StreamCopyKernel
	// StreamScaleKernel computes c[i] = 3*a[i] (16 B/element).
	StreamScaleKernel
	// StreamTriadKernel computes c[i] = a[i] + 3*b[i] (24 B/element).
	StreamTriadKernel
)

// StreamKernels lists the suite in McCalpin's order.
var StreamKernels = []StreamKernel{StreamCopyKernel, StreamScaleKernel, StreamAddKernel, StreamTriadKernel}

// String names the kernel as STREAM does.
func (k StreamKernel) String() string {
	switch k {
	case StreamAddKernel:
		return "add"
	case StreamCopyKernel:
		return "copy"
	case StreamScaleKernel:
		return "scale"
	case StreamTriadKernel:
		return "triad"
	default:
		return fmt.Sprintf("StreamKernel(%d)", int(k))
	}
}

// loadsStores reports the kernel's memory operations per element.
func (k StreamKernel) loadsStores() (loads, stores int) {
	switch k {
	case StreamAddKernel, StreamTriadKernel:
		return 2, 1
	default:
		return 1, 1
	}
}

// bytesPerElement is the kernel's STREAM byte accounting.
func (k StreamKernel) bytesPerElement() int64 {
	loads, stores := k.loadsStores()
	return int64(loads+stores) * 8
}

// apply computes the kernel's result for one element.
func (k StreamKernel) apply(a, b uint64) uint64 {
	switch k {
	case StreamAddKernel:
		return a + b
	case StreamCopyKernel:
		return a
	case StreamScaleKernel:
		return 3 * a
	case StreamTriadKernel:
		return a + 3*b
	default:
		panic("kernels: unknown stream kernel")
	}
}

// StreamConfig parameterizes one STREAM run.
type StreamConfig struct {
	// Kernel selects the operation; the zero value is ADD, the kernel
	// the paper reports.
	Kernel StreamKernel
	// ElemsPerNodelet is the array length divided by the nodelet count;
	// total elements = ElemsPerNodelet * Nodelets.
	ElemsPerNodelet int
	// Nodelets is how many nodelets the arrays (and workers) span;
	// 1 reproduces Fig. 4, 8 reproduces Fig. 5.
	Nodelets int
	// Threads is the worker count.
	Threads int
	// Strategy selects the spawn tree.
	Strategy cilk.Strategy
}

// StreamAdd runs the STREAM ADD kernel (c[i] = a[i] + b[i] over 8-byte
// integers, the paper's port); it is Stream with the kernel forced to ADD.
func StreamAdd(mcfg machine.Config, cfg StreamConfig, opts ...RunOption) (metrics.Result, error) {
	cfg.Kernel = StreamAddKernel
	return Stream(mcfg, cfg, opts...)
}

// Stream runs the configured STREAM kernel on a fresh system built from
// mcfg and returns the measured bandwidth result. The measured region
// spans worker creation through the final join, which is what makes the
// spawn strategies of Fig. 5 distinguishable.
func Stream(mcfg machine.Config, cfg StreamConfig, opts ...RunOption) (metrics.Result, error) {
	if cfg.ElemsPerNodelet <= 0 || cfg.Threads <= 0 || cfg.Nodelets <= 0 {
		return metrics.Result{}, fmt.Errorf("kernels: invalid stream config %+v", cfg)
	}
	sys := newSystem(mcfg, opts...)
	if cfg.Nodelets > sys.Nodelets() {
		return metrics.Result{}, fmt.Errorf("kernels: stream wants %d nodelets, machine has %d",
			cfg.Nodelets, sys.Nodelets())
	}
	n := cfg.ElemsPerNodelet * cfg.Nodelets

	// On one nodelet the arrays are plain local allocations
	// (mw_localmalloc); across nodelets they are striped word by word
	// (mw_malloc1dlong), so element i lives on nodelet i mod N and a
	// worker walking stride N touches only local words.
	var a, b, c vector
	if cfg.Nodelets == 1 {
		a = sys.Mem.AllocLocal(0, n)
		b = sys.Mem.AllocLocal(0, n)
		c = sys.Mem.AllocLocal(0, n)
	} else {
		a = sys.Mem.AllocStriped(n)
		b = sys.Mem.AllocStriped(n)
		c = sys.Mem.AllocStriped(n)
	}
	for i := 0; i < n; i++ {
		sys.Mem.Write(a.At(i), uint64(i))
		sys.Mem.Write(b.At(i), uint64(2*i))
	}

	loads, _ := cfg.Kernel.loadsStores()
	sh := &streamShared{a: a, b: b, c: c, kernel: cfg.Kernel, loads: loads}
	var res metrics.Result
	if _, err := sys.RunCont(streamRoot(cfg, sh, &res.Elapsed)); err != nil {
		return metrics.Result{}, err
	}
	res.Bytes = int64(n) * cfg.Kernel.bytesPerElement()

	for i := 0; i < n; i++ {
		want := cfg.Kernel.apply(uint64(i), uint64(2*i))
		if got := sys.Mem.Read(c.At(i)); got != want {
			return metrics.Result{}, fmt.Errorf("kernels: stream %v c[%d] = %d, want %d",
				cfg.Kernel, i, got, want)
		}
	}
	return res, nil
}

// streamShared is the per-run state every STREAM worker reads.
type streamShared struct {
	a, b, c vector
	kernel  StreamKernel
	loads   int
}

// streamWorker walks elements i, i+stride, ... below end — one worker's
// share of its nodelet's stripe: load a[i] (+ b[i]), store c[i], charge the
// loop overhead.
type streamWorker struct {
	sh             *streamShared
	i, end, stride int
	va, vb         uint64
	pc             int
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (w *streamWorker) Step(t *machine.CThread) bool {
	s := w.sh
	for {
		switch w.pc {
		case 0: // loop head
			if w.i >= w.end {
				return true
			}
			w.pc = 1
			if t.CLoad(s.a.At(w.i)) {
				return false
			}
		case 1:
			w.va = t.Value()
			if s.loads == 2 {
				w.pc = 2
				if t.CLoad(s.b.At(w.i)) {
					return false
				}
			} else {
				w.vb = 0
				w.pc = 3
			}
		case 2:
			w.vb = t.Value()
			w.pc = 3
		case 3:
			w.pc = 4
			if t.CStore(s.c.At(w.i), s.kernel.apply(w.va, w.vb)) {
				return false
			}
		case 4:
			w.i += w.stride
			w.pc = 0
			if t.CCompute(streamOverheadCycles) {
				return false
			}
		}
	}
}

// streamRoot builds the root body of one STREAM run: spawn the workers with
// the configured strategy, join them, and record the elapsed time. Worker id
// serves nodelet nl = id mod N and takes its rank-th contiguous share of
// that nodelet's stripe, whose slot j is element nl + j*N (with one nodelet,
// simply element j).
func streamRoot(cfg StreamConfig, sh *streamShared, out *sim.Time) machine.CBody {
	ws := cilk.NewWorkers(cfg.Nodelets, cfg.Threads, cfg.Strategy, func(id int) machine.CBody {
		n := cfg.Nodelets
		nl, rank := id%n, id/n
		lo, hi := share(cfg.ElemsPerNodelet, rank, (cfg.Threads-nl+n-1)/n)
		return &streamWorker{sh: sh, i: nl + lo*n, end: nl + hi*n, stride: n}
	})
	return &timedRoot{drive: ws, out: out}
}

// share splits n items into parts pieces and returns the half-open range of
// piece rank (earlier pieces take the remainder).
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

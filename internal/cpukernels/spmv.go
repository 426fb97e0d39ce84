package cpukernels

import (
	"fmt"

	"emuchick/internal/metrics"
	"emuchick/internal/sparse"
	"emuchick/internal/xeon"
)

// SpMVVariant selects one of the three Haswell baselines of Fig. 9b.
type SpMVVariant int

const (
	// SpMVMKL models Intel MKL's tuned CSR kernel: static row partition,
	// tight inner loop, 4-byte column indices.
	SpMVMKL SpMVVariant = iota
	// SpMVCilkFor models a cilk_for row loop: static chunking with a
	// slightly heavier inner loop than MKL.
	SpMVCilkFor
	// SpMVCilkSpawn models the grained cilk_spawn kernel whose
	// performance "depends largely on grain size" — each task of
	// GrainNNZ elements pays the runtime's spawn overhead.
	SpMVCilkSpawn
)

// SpMVVariants lists the three baselines in the paper's order.
var SpMVVariants = []SpMVVariant{SpMVMKL, SpMVCilkFor, SpMVCilkSpawn}

// String returns the paper's label for the variant.
func (v SpMVVariant) String() string {
	switch v {
	case SpMVMKL:
		return "mkl"
	case SpMVCilkFor:
		return "cilk_for"
	case SpMVCilkSpawn:
		return "cilk_spawn"
	default:
		return fmt.Sprintf("SpMVVariant(%d)", int(v))
	}
}

// Per-nonzero compute costs: MKL's kernel is vectorized and tight; the
// Cilk kernels are scalar compiles of the plain loop.
const (
	mklNNZCycles  = 2
	cilkNNZCycles = 4
)

// SpMVConfig parameterizes one CPU SpMV run.
type SpMVConfig struct {
	GridN    int
	Variant  SpMVVariant
	Threads  int // the paper uses 56 (physical cores)
	GrainNNZ int // cilk_spawn only; the paper's best CPU grain is 16384
}

// SpMV multiplies the synthetic Laplacian by a dyadic vector on the CPU
// model, verifies the result, and reports effective bandwidth over the
// paper's useful-byte count.
func SpMV(ccfg xeon.Config, cfg SpMVConfig, opts ...RunOption) (metrics.Result, error) {
	if cfg.GridN <= 0 || cfg.Threads <= 0 {
		return metrics.Result{}, fmt.Errorf("cpukernels: invalid spmv config %+v", cfg)
	}
	if cfg.Variant == SpMVCilkSpawn && cfg.GrainNNZ <= 0 {
		return metrics.Result{}, fmt.Errorf("cpukernels: cilk_spawn needs a positive grain")
	}
	m := sparse.Laplacian2D(cfg.GridN)
	xv := make([]float64, m.Cols)
	for i := range xv {
		xv[i] = 1 + float64(i%7)*0.125
	}
	want := m.MulVec(xv)

	sys := newRun(ccfg, opts)
	// Model addresses. MKL uses 4-byte column indices; the Cilk kernels
	// compile with 8-byte ones.
	idxBytes := int64(8)
	nnzCycles := int64(cilkNNZCycles)
	if cfg.Variant == SpMVMKL {
		idxBytes = 4
		nnzCycles = mklNNZCycles
	}
	nnz := int64(m.NNZ())
	rpA := sys.Alloc(int64(m.Rows+1) * 8)
	ciA := sys.Alloc(nnz * idxBytes)
	vvA := sys.Alloc(nnz * 8)
	xA := sys.Alloc(int64(m.Cols) * 8)
	yA := sys.Alloc(int64(m.Rows) * 8)

	yv := make([]float64, m.Rows)
	rows := func(lo, hi int) xeon.CBody {
		return &rowWalker{m: m, xv: xv, yv: yv, rpA: rpA, ciA: ciA, vvA: vvA, xA: xA, yA: yA,
			idxBytes: idxBytes, nnzCycles: nnzCycles, r: lo, hi: hi}
	}

	var root driver
	switch cfg.Variant {
	case SpMVMKL, SpMVCilkFor:
		// Static partition of rows over the worker pool.
		f := &fanout{}
		for w := 0; w < cfg.Threads; w++ {
			if lo, hi := share(m.Rows, w, cfg.Threads); lo < hi {
				f.bodies = append(f.bodies, rows(lo, hi))
			}
		}
		root = f
	case SpMVCilkSpawn:
		// Grained recursive spawn over rows; every task pays the Cilk
		// runtime's spawn cost.
		root = &parFor{hi: m.Rows, grain: max(cfg.GrainNNZ/5, 1), leaf: rows}
	default:
		return metrics.Result{}, fmt.Errorf("cpukernels: unknown variant %v", cfg.Variant)
	}
	elapsed, err := sys.Run(&task{d: root})
	if err != nil {
		return metrics.Result{}, err
	}
	for r := range yv {
		if yv[r] != want[r] {
			return metrics.Result{}, fmt.Errorf("cpukernels: spmv y[%d] = %v, want %v", r, yv[r], want[r])
		}
	}
	return metrics.Result{Bytes: m.UsefulBytes(), Elapsed: elapsed}, nil
}

// rowWalker computes rows [r, hi) of y = A·x: per row a 16-byte read of
// its two row pointers, then per nonzero reads of the column index, the
// value and x[col] and the per-nonzero compute, then the y write and four
// cycles of loop overhead.
type rowWalker struct {
	m                     *sparse.CSR
	xv, yv                []float64
	rpA, ciA, vvA, xA, yA int64 // model base addresses
	idxBytes, nnzCycles   int64
	r, hi                 int
	k                     int64 // next nonzero of row r
	sum                   float64
	pc                    uint8
}

func (w *rowWalker) Step(t *xeon.CThread) bool {
	m := w.m
	for w.r < w.hi {
		switch w.pc {
		case 0: // rowptr[r] and rowptr[r+1]
			w.k = m.RowPtr[w.r]
			w.sum = 0
			w.pc = 1
			if t.Read(w.rpA+int64(w.r)*8, 16) {
				return false
			}
		case 1:
			if w.k == m.RowPtr[w.r+1] {
				w.pc = 5
				continue
			}
			w.pc = 2
			if t.Read(w.ciA+w.k*w.idxBytes, w.idxBytes) {
				return false
			}
		case 2:
			w.pc = 3
			if t.Read(w.vvA+w.k*8, 8) {
				return false
			}
		case 3:
			w.pc = 4
			if t.Read(w.xA+m.ColIdx[w.k]*8, 8) {
				return false
			}
		case 4:
			w.sum += m.Val[w.k] * w.xv[m.ColIdx[w.k]]
			w.k++
			w.pc = 1
			if t.Compute(w.nnzCycles) {
				return false
			}
		case 5:
			w.pc = 6
			if t.Write(w.yA+int64(w.r)*8, 8) {
				return false
			}
		case 6:
			w.yv[w.r] = w.sum
			w.r++
			w.pc = 0
			if t.Compute(4) {
				return false
			}
		}
	}
	return true
}

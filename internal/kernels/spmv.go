package kernels

import (
	"fmt"
	"math"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/metrics"
	"emuchick/internal/sim"
	"emuchick/internal/sparse"
)

// Per-nonzero and per-row instruction overheads of the (untuned) CSR SpMV
// inner loop: floating-point multiply-add and index arithmetic on a simple
// in-order core.
const (
	spmvNNZCycles = 24
	spmvRowCycles = 10
)

// SpMVLayout selects one of the three Emu data layouts of Fig. 3.
type SpMVLayout int

const (
	// SpMVLocal places everything (matrix, x, y) on nodelet 0 with
	// contiguous mallocs — the paper's "local" case, which serializes
	// behind one nodelet's channel and core.
	SpMVLocal SpMVLayout = iota
	// SpMV1D stripes the matrix arrays word-by-word across nodelets
	// (mw_malloc1dlong), replicates x, and keeps y on nodelet 0; a
	// thread migrates on nearly every nonzero.
	SpMV1D
	// SpMV2D uses the paper's custom two-stage allocation: each nodelet
	// holds the values and column indices of its assigned rows
	// contiguously, so no migrations occur within a row.
	SpMV2D
)

// SpMVLayouts lists the three layouts in the paper's order.
var SpMVLayouts = []SpMVLayout{SpMVLocal, SpMV1D, SpMV2D}

// String returns the paper's name for the layout.
func (l SpMVLayout) String() string {
	switch l {
	case SpMVLocal:
		return "local"
	case SpMV1D:
		return "1d"
	case SpMV2D:
		return "2d"
	default:
		return fmt.Sprintf("SpMVLayout(%d)", int(l))
	}
}

// SpMVConfig parameterizes one Emu SpMV run over the synthetic Laplacian.
type SpMVConfig struct {
	// GridN is the stencil grid edge; the matrix is GridN^2 x GridN^2
	// with five diagonals.
	GridN int
	// Layout selects the data placement.
	Layout SpMVLayout
	// GrainNNZ is the number of matrix elements per spawned task (the
	// paper finds 16 most effective on the Emu). Thread concurrency is
	// bounded by the machine's hardware contexts, as on the real Chick.
	GrainNNZ int
	// Nodelets restricts the layout to the first N nodelets; zero means
	// all of them.
	Nodelets int
	// StripeX places the input vector as a 1D-striped array instead of
	// replicating it per nodelet — the ablation of the paper's "smart
	// thread migration" recommendation #2 (replicate common inputs).
	// Only meaningful for the 1D and 2D layouts.
	StripeX bool
}

// SpMV multiplies the Laplacian by a fixed dyadic-valued vector under the
// configured layout, verifies y against the reference MulVec, and reports
// effective bandwidth over the paper's useful-byte count.
func SpMV(mcfg machine.Config, cfg SpMVConfig, opts ...RunOption) (metrics.Result, error) {
	if cfg.GridN <= 0 || cfg.GrainNNZ <= 0 {
		return metrics.Result{}, fmt.Errorf("kernels: invalid spmv config %+v", cfg)
	}
	sys := newSystem(mcfg, opts...)
	nodelets := cfg.Nodelets
	if nodelets == 0 {
		nodelets = sys.Nodelets()
	}
	if nodelets > sys.Nodelets() {
		return metrics.Result{}, fmt.Errorf("kernels: spmv wants %d nodelets, machine has %d",
			nodelets, sys.Nodelets())
	}
	m := sparse.Laplacian2D(cfg.GridN)
	xv := spmvInput(m.Cols)
	want := m.MulVec(xv)
	grainRows := spmvGrainRows(cfg.GrainNNZ)

	var loop cilk.Driver
	var ya memsys.Local
	switch cfg.Layout {
	case SpMVLocal, SpMV1D:
		loop, ya = spmvCSR(sys, m, xv, grainRows, cfg.Layout, cfg.StripeX)
	case SpMV2D:
		loop, ya = spmv2D(sys, m, xv, grainRows, nodelets, cfg.StripeX)
	default:
		return metrics.Result{}, fmt.Errorf("kernels: unknown layout %v", cfg.Layout)
	}
	var elapsed sim.Time
	if _, err := sys.Run(cilk.NewTimed(loop, &elapsed)); err != nil {
		return metrics.Result{}, err
	}
	for r := 0; r < m.Rows; r++ {
		if got := math.Float64frombits(sys.Mem.Read(ya.At(r))); got != want[r] {
			return metrics.Result{}, fmt.Errorf("kernels: spmv y[%d] = %v, want %v", r, got, want[r])
		}
	}
	if cfg.Layout == SpMV2D && !cfg.StripeX {
		if mig := sys.Counters.TotalMigrations(); mig != 0 {
			return metrics.Result{}, fmt.Errorf("kernels: 2d layout migrated %d times; rows must be migration-free", mig)
		}
	}
	return metrics.Result{Bytes: m.UsefulBytes(), Elapsed: elapsed}, nil
}

// spmvInput is the input vector every SpMV kernel multiplies by: dyadic
// values, so the floating-point sums are exact in any order.
func spmvInput(n int) []float64 {
	xv := make([]float64, n)
	for i := range xv {
		xv[i] = 1 + float64(i%7)*0.125
	}
	return xv
}

// spmvGrainRows converts the nnz grain to a row grain: an average Laplacian
// row has ~5 nonzeros.
func spmvGrainRows(grainNNZ int) int {
	return max(grainNNZ/5, 1)
}

// xVector is the input vector under its placement: one copy (on nodelet 0
// for the local layout, or striped so that x[col] lives on nodelet col mod N
// and reading it migrates), or replicated per nodelet — the paper's
// recommendation, which makes every x read local.
type xVector struct {
	one vector            // the single copy; nil when replicated
	rep memsys.Replicated // the per-nodelet copies
}

// At is the address of x[c] as seen from nodelet nl.
func (x xVector) At(nl, c int) memsys.Addr {
	if x.one != nil {
		return x.one.At(c)
	}
	return x.rep.At(nl, c)
}

// allocX allocates and fills x for the layout: local with the local layout,
// else striped under the ablation or replicated.
func allocX(sys *machine.System, xv []float64, layout SpMVLayout, stripeX bool) xVector {
	var one vector
	switch {
	case layout == SpMVLocal:
		one = sys.Mem.AllocLocal(0, len(xv))
	case stripeX:
		one = sys.Mem.AllocStriped(len(xv))
	default:
		xr := sys.Mem.AllocReplicated(len(xv))
		for c := range xv {
			xr.Broadcast(sys.Mem, c, math.Float64bits(xv[c]))
		}
		return xVector{rep: xr}
	}
	for c := range xv {
		sys.Mem.Write(one.At(c), math.Float64bits(xv[c]))
	}
	return xVector{one: one}
}

// shard views one nodelet's chunk of a blocked allocation as a vector.
type shard struct {
	b  memsys.Blocked
	nl int
}

func (s shard) At(i int) memsys.Addr { return s.b.At(s.nl, i) }

// spmvRows is what a row walker reads, for one layout. The layouts differ
// only in where a row's bounds live (bounds words stride*i and stride*i+1:
// CSR row pointers, or a 2D shard's (offset, count) pair), in where its
// elements live (ci and vv), and in where x lives.
type spmvRows struct {
	bounds  vector
	stride  int
	counted bool  // the second bound word is a count, not an end
	rows    []int // slot -> row of y; nil when slots are rows
	ci, vv  vector
	x       xVector
	y       memsys.Local
}

// rowWalker is the SpMV leaf: for each row slot in [i, hi), load its two
// bound words, then per element the column index, the value and x[col],
// accumulate and charge the inner-loop cycles, and finally store y[row]
// (posted to nodelet 0 from anywhere else) and charge the row overhead.
type rowWalker struct {
	s      *spmvRows
	i, hi  int
	k, end uint64
	col    int
	v, sum float64
	pc     uint8
}

func (w *rowWalker) Step(t *machine.CThread) bool {
	s := w.s
	for {
		switch w.pc {
		case 0: // row head
			if w.i >= w.hi {
				return true
			}
			w.pc = 1
			if t.CLoad(s.bounds.At(s.stride * w.i)) {
				return false
			}
		case 1:
			w.k = t.Value()
			w.pc = 2
			if t.CLoad(s.bounds.At(s.stride*w.i + 1)) {
				return false
			}
		case 2:
			w.end = t.Value()
			if s.counted {
				w.end += w.k
			}
			w.sum = 0
			w.pc = 3
		case 3: // element head
			if w.k >= w.end {
				row := w.i
				if s.rows != nil {
					row = s.rows[w.i]
				}
				w.pc = 7
				if t.CStore(s.y.At(row), math.Float64bits(w.sum)) {
					return false
				}
				continue
			}
			w.pc = 4
			if t.CLoad(s.ci.At(int(w.k))) {
				return false
			}
		case 4:
			w.col = int(t.Value())
			w.pc = 5
			if t.CLoad(s.vv.At(int(w.k))) {
				return false
			}
		case 5:
			w.v = math.Float64frombits(t.Value())
			w.pc = 6
			if t.CLoad(s.x.At(t.Nodelet(), w.col)) {
				return false
			}
		case 6:
			w.sum += w.v * math.Float64frombits(t.Value())
			w.k++
			w.pc = 3
			if t.CCompute(spmvNNZCycles) {
				return false
			}
		case 7:
			w.i++
			w.pc = 0
			if t.CCompute(spmvRowCycles) {
				return false
			}
		}
	}
}

// rowLoop is the ParallelFor a layout runs over its row slots.
func rowLoop(s *spmvRows, n, grainRows int) *cilk.ParFor {
	return cilk.NewParallelFor(n, grainRows, func(lo, hi int) machine.CBody {
		return &rowWalker{s: s, i: lo, hi: hi}
	})
}

// spmvCSR builds the two plain CSR layouts. Local puts everything on
// nodelet 0. 1D stripes the matrix arrays, so a row's two bound words are on
// nodelets r and r+1 mod N and, since ColIdx and Val share stripe indices,
// each element is one migration followed by a local load; x is replicated
// (or striped under the ablation). y stays on nodelet 0 in both.
func spmvCSR(sys *machine.System, m *sparse.CSR, xv []float64, grainRows int, layout SpMVLayout, stripeX bool) (cilk.Driver, memsys.Local) {
	alloc := func(n int) vector { return sys.Mem.AllocStriped(n) }
	if layout == SpMVLocal {
		alloc = func(n int) vector { return sys.Mem.AllocLocal(0, n) }
	}
	rp := alloc(m.Rows + 1)
	ci := alloc(m.NNZ())
	vv := alloc(m.NNZ())
	x := allocX(sys, xv, layout, stripeX)
	ya := sys.Mem.AllocLocal(0, m.Rows)
	for r := 0; r <= m.Rows; r++ {
		sys.Mem.Write(rp.At(r), uint64(m.RowPtr[r]))
	}
	for k := 0; k < m.NNZ(); k++ {
		sys.Mem.Write(ci.At(k), uint64(m.ColIdx[k]))
		sys.Mem.Write(vv.At(k), math.Float64bits(m.Val[k]))
	}
	s := &spmvRows{bounds: rp, stride: 1, ci: ci, vv: vv, x: x, y: ya}
	return rowLoop(s, m.Rows, grainRows), ya
}

// spmv2D builds the two-stage blocked layout: rows dealt round-robin, each
// nodelet's shard contiguous, per-row (offset, length) metadata local. The
// root spawns one coordinator per populated nodelet, each running the row
// loop over its own shard.
func spmv2D(sys *machine.System, m *sparse.CSR, xv []float64, grainRows, nodelets int, stripeX bool) (cilk.Driver, memsys.Local) {
	part := sparse.PartitionRows(m, nodelets)
	// Shards need padding to the system's nodelet count.
	ciWords := make([]int, sys.Nodelets())
	metaWords := make([]int, sys.Nodelets())
	for nl := 0; nl < nodelets; nl++ {
		ciWords[nl] = part.WordsOf[nl]
		metaWords[nl] = 2 * len(part.RowsOf[nl])
	}
	ci := sys.Mem.AllocBlocked(ciWords)
	vv := sys.Mem.AllocBlocked(ciWords)
	meta := sys.Mem.AllocBlocked(metaWords)
	x := allocX(sys, xv, SpMV2D, stripeX)
	ya := sys.Mem.AllocLocal(0, m.Rows)
	fan := &cilk.Fanout{}
	for nl := 0; nl < nodelets; nl++ {
		for slot, r := range part.RowsOf[nl] {
			off := part.Offset[r]
			sys.Mem.Write(meta.At(nl, 2*slot), uint64(off))
			sys.Mem.Write(meta.At(nl, 2*slot+1), uint64(m.RowNNZ(r)))
			for j := 0; j < m.RowNNZ(r); j++ {
				k := m.RowPtr[r] + int64(j)
				sys.Mem.Write(ci.At(nl, off+j), uint64(m.ColIdx[k]))
				sys.Mem.Write(vv.At(nl, off+j), math.Float64bits(m.Val[k]))
			}
		}
		if rows := part.RowsOf[nl]; len(rows) > 0 {
			s := &spmvRows{bounds: shard{meta, nl}, stride: 2, counted: true, rows: rows,
				ci: shard{ci, nl}, vv: shard{vv, nl}, x: x, y: ya}
			fan.Add(nl, rowLoop(s, len(rows), grainRows))
		}
	}
	return fan, ya
}

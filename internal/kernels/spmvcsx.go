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

// SpMVCSX implements the paper's named future-work direction ("new
// state-of-the-art SpMV formats ... such as SparseX, which uses the
// Compressed Sparse eXtended format"): CSR SpMV under the 2D layout, with
// the column-index stream delta-compressed four-to-a-word (sparse.CSX).
// On a machine whose channels move 8-byte words, compressing indices cuts
// the words per nonzero from three (index, value, x) to about 2.3, which
// converts directly into effective bandwidth once the channel is the
// bottleneck.

// csxDecodeCycles is the per-nonzero cost of unpacking a 16-bit delta and
// updating the running column (shift, mask, add).
const csxDecodeCycles = 4

// SpMVCSXConfig parameterizes the compressed-format run.
type SpMVCSXConfig struct {
	GridN    int
	GrainNNZ int
}

// SpMVCSX multiplies the synthetic Laplacian by the same dyadic vector as
// SpMV, using the 2D row partition with packed delta indices, verifies the
// result, and reports effective bandwidth over the SAME useful-byte count
// as the CSR kernels — so its MB/s are directly comparable to Fig. 9a's.
func SpMVCSX(mcfg machine.Config, cfg SpMVCSXConfig, opts ...RunOption) (metrics.Result, error) {
	if cfg.GridN <= 0 || cfg.GrainNNZ <= 0 {
		return metrics.Result{}, fmt.Errorf("kernels: invalid spmv-csx config %+v", cfg)
	}
	m := sparse.Laplacian2D(cfg.GridN)
	x, err := sparse.EncodeCSX(m)
	if err != nil {
		return metrics.Result{}, err
	}
	xv := spmvInput(m.Cols)
	want := m.MulVec(xv)

	sys := newSystem(mcfg, opts...)
	nodelets := sys.Nodelets()
	part := sparse.PartitionRows(m, nodelets)

	// Per-nodelet shards: packed delta words, values, and 4-word row
	// metadata (delta offset, value offset, nnz, first column).
	deltaWords := make([]int, nodelets)
	valWords := make([]int, nodelets)
	metaWords := make([]int, nodelets)
	for nl := 0; nl < nodelets; nl++ {
		for _, r := range part.RowsOf[nl] {
			deltaWords[nl] += len(x.DeltaWords[r])
			valWords[nl] += int(x.RowNNZCount[r])
		}
		metaWords[nl] = 4 * len(part.RowsOf[nl])
	}
	dsh := sys.Mem.AllocBlocked(deltaWords)
	vsh := sys.Mem.AllocBlocked(valWords)
	meta := sys.Mem.AllocBlocked(metaWords)
	xr := allocX(sys, xv, SpMV2D, false)
	ya := sys.Mem.AllocLocal(0, m.Rows)

	dOff := make([]int, nodelets)
	vOff := make([]int, nodelets)
	for nl := 0; nl < nodelets; nl++ {
		for slot, r := range part.RowsOf[nl] {
			sys.Mem.Write(meta.At(nl, 4*slot), uint64(dOff[nl]))
			sys.Mem.Write(meta.At(nl, 4*slot+1), uint64(vOff[nl]))
			sys.Mem.Write(meta.At(nl, 4*slot+2), uint64(x.RowNNZCount[r]))
			sys.Mem.Write(meta.At(nl, 4*slot+3), uint64(x.RowFirst[r]))
			for _, w := range x.DeltaWords[r] {
				sys.Mem.Write(dsh.At(nl, dOff[nl]), w)
				dOff[nl]++
			}
			for j := 0; j < int(x.RowNNZCount[r]); j++ {
				sys.Mem.Write(vsh.At(nl, vOff[nl]), math.Float64bits(x.Val[x.RowValOff[r]+int64(j)]))
				vOff[nl]++
			}
		}
	}

	grainRows := spmvGrainRows(cfg.GrainNNZ)
	fan := &cilk.Fanout{}
	for nl := 0; nl < nodelets; nl++ {
		if rows := part.RowsOf[nl]; len(rows) > 0 {
			sh := &csxShard{meta: shard{meta, nl}, deltas: shard{dsh, nl}, vals: shard{vsh, nl}, rows: rows, x: xr, y: ya}
			fan.Add(nl, cilk.NewParallelFor(len(rows), grainRows, func(lo, hi int) machine.CBody {
				return &csxWalker{s: sh, i: lo, hi: hi}
			}))
		}
	}
	var elapsed sim.Time
	_, err = sys.Run(cilk.NewTimed(fan, &elapsed))
	if err != nil {
		return metrics.Result{}, err
	}
	for r := 0; r < m.Rows; r++ {
		if got := math.Float64frombits(sys.Mem.Read(ya.At(r))); got != want[r] {
			return metrics.Result{}, fmt.Errorf("kernels: spmv-csx y[%d] = %v, want %v", r, got, want[r])
		}
	}
	if mig := sys.Counters.TotalMigrations(); mig != 0 {
		return metrics.Result{}, fmt.Errorf("kernels: csx layout migrated %d times", mig)
	}
	return metrics.Result{Bytes: m.UsefulBytes(), Elapsed: elapsed}, nil
}

// csxShard is what a CSX row walker reads on one nodelet: 4-word row
// metadata (delta offset, value offset, nnz, first column), the packed delta
// words, and the values.
type csxShard struct {
	meta, deltas, vals shard
	rows               []int
	x                  xVector
	y                  memsys.Local
}

// csxWalker is the CSX leaf. Per row slot in [i, hi): load the four metadata
// words; per element, every fourth delta after the first column loads the
// next packed word, each delta is decoded into the running column, then the
// value and x[col] are loaded and accumulated; finally y[row] is stored and
// the row overhead charged.
type csxWalker struct {
	s            *csxShard
	i, hi        int
	dBase, vBase int
	cnt, j       int
	col          int64
	dw           uint64
	v, sum       float64
	pc           uint8
}

func (w *csxWalker) Step(t *machine.CThread) bool {
	s := w.s
	for {
		switch w.pc {
		case 0: // row head: the four metadata words
			if w.i >= w.hi {
				return true
			}
			w.pc = 1
			if t.CLoad(s.meta.At(4 * w.i)) {
				return false
			}
		case 1:
			w.dBase = int(t.Value())
			w.pc = 2
			if t.CLoad(s.meta.At(4*w.i + 1)) {
				return false
			}
		case 2:
			w.vBase = int(t.Value())
			w.pc = 3
			if t.CLoad(s.meta.At(4*w.i + 2)) {
				return false
			}
		case 3:
			w.cnt = int(t.Value())
			w.pc = 4
			if t.CLoad(s.meta.At(4*w.i + 3)) {
				return false
			}
		case 4:
			w.col = int64(t.Value())
			w.sum, w.dw, w.j = 0, 0, 0
			w.pc = 5
		case 5: // element head
			k := w.j - 1 // the delta this element decodes; none for the first
			switch {
			case w.j >= w.cnt:
				w.pc = 11
				if t.CStore(s.y.At(s.rows[w.i]), math.Float64bits(w.sum)) {
					return false
				}
			case k < 0:
				w.pc = 8 // the first column comes from the metadata
			case k%4 == 0:
				w.pc = 6 // the next packed word of four deltas
				if t.CLoad(s.deltas.At(w.dBase + k/4)) {
					return false
				}
			default:
				w.pc = 7
			}
		case 6:
			w.dw = t.Value()
			w.pc = 7
		case 7: // decode the delta
			k := w.j - 1
			w.col += int64(w.dw >> (uint(k) % 4 * 16) & 0xFFFF)
			w.pc = 8
			if t.CCompute(csxDecodeCycles) {
				return false
			}
		case 8:
			w.pc = 9
			if t.CLoad(s.vals.At(w.vBase + w.j)) {
				return false
			}
		case 9:
			w.v = math.Float64frombits(t.Value())
			w.pc = 10
			if t.CLoad(s.x.At(t.Nodelet(), int(w.col))) {
				return false
			}
		case 10:
			w.sum += w.v * math.Float64frombits(t.Value())
			w.j++
			w.pc = 5
			if t.CCompute(spmvNNZCycles) {
				return false
			}
		case 11: // row tail
			w.i++
			w.pc = 0
			if t.CCompute(spmvRowCycles) {
				return false
			}
		}
	}
}

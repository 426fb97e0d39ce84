package tensor

import (
	"fmt"
	"math"

	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/metrics"
	"emuchick/internal/sim"
	"emuchick/internal/workload"
)

// MTTKRP (matricized tensor times Khatri-Rao product) is the bottleneck
// kernel of the CP decomposition the paper's introduction targets via
// ParTI: for factor matrices B (J x R) and C (K x R),
//
//	Y(i, r) = sum over nonzeros (i,j,k,v) of v * B(j,r) * C(k,r).
//
// Per nonzero it reads 2R factor words and accumulates R outputs — the
// same weak-locality gather/scatter pattern as SpMV, at a higher byte
// count per entry.

// mttkrpNNZCyclesPerRank is the compute cost per nonzero per rank column
// (two multiplies and an add on the in-order core).
const mttkrpNNZCyclesPerRank = 12

// MTTKRPConfig parameterizes one Emu MTTKRP run.
type MTTKRPConfig struct {
	Dims     [3]int
	NNZ      int
	Rank     int // factor columns, typically small (4-32) in CP-ALS
	Seed     uint64
	Layout   Layout // 1D striped nonzeros vs 2D slice-blocked
	GrainNNZ int
}

// MTTKRPRef computes the reference result on the host.
func MTTKRPRef(t *COO, b, c []float64, rank int) []float64 {
	y := make([]float64, t.Dims[0]*rank)
	for n := range t.Val {
		i, j, k := int(t.I[n]), int(t.J[n]), int(t.K[n])
		for r := 0; r < rank; r++ {
			y[i*rank+r] += t.Val[n] * b[j*rank+r] * c[k*rank+r]
		}
	}
	return y
}

// MTTKRPEmu runs the kernel on a fresh machine: factor matrices are
// replicated per nodelet (they are the "commonly used inputs" of the
// paper's smart-migration recommendation), the output rows are striped,
// and nonzeros are placed per the layout. The result is verified exactly
// (dyadic values).
func MTTKRPEmu(mcfg machine.Config, cfg MTTKRPConfig) (metrics.Result, error) {
	if cfg.NNZ <= 0 || cfg.GrainNNZ <= 0 || cfg.Rank <= 0 {
		return metrics.Result{}, fmt.Errorf("tensor: invalid MTTKRP config %+v", cfg)
	}
	if err := checkDims(cfg.Dims); err != nil {
		return metrics.Result{}, err
	}
	t := Random(cfg.Dims, cfg.NNZ, newRNGFor(cfg.Seed))
	if err := t.Validate(); err != nil {
		return metrics.Result{}, err
	}
	rank := cfg.Rank
	b := make([]float64, cfg.Dims[1]*rank)
	c := make([]float64, cfg.Dims[2]*rank)
	for i := range b {
		b[i] = 1 + float64(i%4)*0.25
	}
	for i := range c {
		c[i] = 1 - float64(i%3)*0.5
	}
	want := MTTKRPRef(t, b, c, rank)

	sys := newSystem(mcfg)
	bRep := sys.Mem.AllocReplicated(len(b))
	cRep := sys.Mem.AllocReplicated(len(c))
	for i, v := range b {
		bRep.Broadcast(sys.Mem, i, math.Float64bits(v))
	}
	for i, v := range c {
		cRep.Broadcast(sys.Mem, i, math.Float64bits(v))
	}
	ya := sys.Mem.AllocStriped(cfg.Dims[0] * rank)

	var elapsed sim.Time
	root, err := placeEntries(sys, t, cfg.Layout, cfg.GrainNNZ, &elapsed, func(coords, vals vector, lo, hi int) machine.CBody {
		return &mttkrpLeaf{b: bRep, c: cRep, ya: ya, rank: rank, coords: coords, vals: vals, n: lo, hi: hi}
	})
	if err != nil {
		return metrics.Result{}, err
	}
	if _, err := sys.Run(root); err != nil {
		return metrics.Result{}, err
	}
	for idx, w := range want {
		got := math.Float64frombits(sys.Mem.Read(ya.At(idx)))
		if got != w {
			return metrics.Result{}, fmt.Errorf("tensor: MTTKRP Y[%d] = %v, want %v", idx, got, w)
		}
	}
	// Useful bytes per nonzero: coordinates + value + 2R factor reads +
	// R output accumulations, 8 bytes each.
	bytes := int64(cfg.NNZ) * int64(2+3*rank) * 8
	return metrics.Result{Bytes: bytes, Elapsed: elapsed}, nil
}

// mttkrpLeaf processes entries [n, hi) from the threadlet's resident shard:
// load the packed coordinates and the value, then for each rank column the
// two local factor replicas, post the product into Y(i, r), and charge the
// column's compute.
type mttkrpLeaf struct {
	b, c         memsys.Replicated
	ya           memsys.Striped
	rank         int
	coords, vals vector
	n, hi        int
	i, j, k      int32
	nl, r        int
	v, bb        float64
	pc           uint8
}

func (w *mttkrpLeaf) Step(t *machine.CThread) bool {
	for {
		switch w.pc {
		case 0:
			if w.n >= w.hi {
				return true
			}
			w.pc = 1
			if t.CLoad(w.coords.At(w.n)) {
				return false
			}
		case 1:
			w.i, w.j, w.k = unpackCoord(t.Value())
			w.pc = 2
			if t.CLoad(w.vals.At(w.n)) {
				return false
			}
		case 2:
			w.v = math.Float64frombits(t.Value())
			w.nl, w.r = t.Nodelet(), 0
			w.pc = 3
		case 3: // rank-column head
			if w.r >= w.rank {
				w.n++
				w.pc = 0
				continue
			}
			w.pc = 4
			if t.CLoad(w.b.At(w.nl, int(w.j)*w.rank+w.r)) {
				return false
			}
		case 4:
			w.bb = math.Float64frombits(t.Value())
			w.pc = 5
			if t.CLoad(w.c.At(w.nl, int(w.k)*w.rank+w.r)) {
				return false
			}
		case 5:
			cc := math.Float64frombits(t.Value())
			w.pc = 6
			if t.CRemoteAddFloat(w.ya.At(int(w.i)*w.rank+w.r), w.v*w.bb*cc) {
				return false
			}
		case 6:
			w.r++
			w.pc = 3
			if t.CCompute(mttkrpNNZCyclesPerRank) {
				return false
			}
		}
	}
}

// newRNGFor isolates MTTKRP's tensors from TTV's for equal seeds.
func newRNGFor(seed uint64) *workload.RNG { return workload.NewRNG(seed ^ 0xABCDEF) }

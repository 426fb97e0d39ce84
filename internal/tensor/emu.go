package tensor

import (
	"fmt"
	"math"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/metrics"
	"emuchick/internal/sim"
	"emuchick/internal/workload"
)

// Layout selects the Emu data placement for the TTV kernel, mirroring the
// SpMV study: Layout1D stripes the nonzero arrays word-by-word (a
// migration on nearly every entry), Layout2D deals mode-0 slices
// round-robin to nodelets with each shard contiguous (no migrations while
// reading entries).
type Layout int

const (
	Layout1D Layout = iota
	Layout2D
)

// Layouts lists both options.
var Layouts = []Layout{Layout1D, Layout2D}

// String names the layout.
func (l Layout) String() string {
	switch l {
	case Layout1D:
		return "1d"
	case Layout2D:
		return "2d"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Per-entry compute cost of the contraction loop.
const ttvNNZCycles = 24

// TTVConfig parameterizes one Emu TTV run.
type TTVConfig struct {
	Dims     [3]int
	NNZ      int
	Seed     uint64
	Layout   Layout
	GrainNNZ int
}

// MaxModeSize bounds every mode of an Emu tensor kernel's tensor. Entries
// pack their coordinates into 21-bit fields of one word (packCoord) and
// sort on a key with 20-bit J and K fields (sortByIJ), so a larger mode
// would corrupt coordinates mid-simulation rather than fail cleanly.
const MaxModeSize = 1 << 20

// checkDims rejects mode sizes the packed layout cannot hold.
func checkDims(dims [3]int) error {
	for m, d := range dims {
		if d < 1 || d > MaxModeSize {
			return fmt.Errorf("tensor: mode %d size %d outside [1, %d]", m, d, MaxModeSize)
		}
	}
	return nil
}

// TTVEmu contracts a random tensor's mode 2 with a dyadic vector on a
// fresh machine and verifies against the reference TTV. Effective bytes
// count each entry's packed coordinates, value, vector read, and output
// accumulation — the analogue of SpMV's useful-bytes metric.
func TTVEmu(mcfg machine.Config, cfg TTVConfig) (metrics.Result, error) {
	if cfg.NNZ <= 0 || cfg.GrainNNZ <= 0 {
		return metrics.Result{}, fmt.Errorf("tensor: invalid TTV config %+v", cfg)
	}
	if err := checkDims(cfg.Dims); err != nil {
		return metrics.Result{}, err
	}
	t := Random(cfg.Dims, cfg.NNZ, workload.NewRNG(cfg.Seed))
	if err := t.Validate(); err != nil {
		return metrics.Result{}, err
	}
	v := make([]float64, cfg.Dims[2])
	for k := range v {
		v[k] = 1 + float64(k%5)*0.25
	}
	want := t.TTV(v)

	sys := newSystem(mcfg)
	cells := cfg.Dims[0] * cfg.Dims[1]

	// The vector is replicated (the paper's recommendation for common
	// inputs); the output is striped by cell and accumulated with posted
	// memory-side float adds, so entry processing never migrates toward
	// the output.
	vr := sys.Mem.AllocReplicated(cfg.Dims[2])
	for k := range v {
		vr.Broadcast(sys.Mem, k, math.Float64bits(v[k]))
	}
	ya := sys.Mem.AllocStriped(cells)

	var elapsed sim.Time
	root, err := placeEntries(sys, t, cfg.Layout, cfg.GrainNNZ, &elapsed, func(coords, vals vector, lo, hi int) machine.CBody {
		return &ttvLeaf{vr: vr, ya: ya, cols: t.Dims[1], coords: coords, vals: vals, n: lo, hi: hi}
	})
	if err != nil {
		return metrics.Result{}, err
	}
	if _, err := sys.Run(root); err != nil {
		return metrics.Result{}, err
	}
	for c := 0; c < cells; c++ {
		got := math.Float64frombits(sys.Mem.Read(ya.At(c)))
		if got != want[c] {
			return metrics.Result{}, fmt.Errorf("tensor: Y[%d] = %v, want %v", c, got, want[c])
		}
	}
	return metrics.Result{Bytes: int64(cfg.NNZ) * 32, Elapsed: elapsed}, nil
}

// newSystem builds the machine each kernel runs on; the golden tests wrap it
// to observe the run.
var newSystem = machine.NewSystem

// packCoord packs (i, j, k) into one word, as an Emu port would to keep
// the per-entry footprint small (21 bits per mode).
func packCoord(i, j, k int32) uint64 {
	return uint64(uint32(i))<<42 | uint64(uint32(j))<<21 | uint64(uint32(k))
}

func unpackCoord(w uint64) (i, j, k int32) {
	return int32(w >> 42 & 0x1FFFFF), int32(w >> 21 & 0x1FFFFF), int32(w & 0x1FFFFF)
}

// vector addresses one dimension of words: a striped array, or one
// nodelet's shard of a blocked one.
type vector interface{ At(i int) memsys.Addr }

// shard views one nodelet's chunk of a blocked allocation as a vector.
type shard struct {
	b  memsys.Blocked
	nl int
}

func (s shard) At(i int) memsys.Addr { return s.b.At(s.nl, i) }

// placeEntries writes t's packed coordinates and values under the layout
// and builds the root body that runs leaf over every entry. Layout1D
// stripes both arrays word-by-word (a migration on nearly every entry) and
// the root runs one ParallelFor over them itself. Layout2D deals mode-0
// slices round-robin — nodelet nl holds the entries of slices i with
// i mod N == nl, contiguous in its shard — and the root spawns one
// ParallelFor coordinator per populated nodelet, there, over its shard.
// Either way the root records the elapsed time from its start to the join.
func placeEntries(sys *machine.System, t *COO, layout Layout, grain int, out *sim.Time,
	leaf func(coords, vals vector, lo, hi int) machine.CBody) (*cilk.Timed, error) {
	switch layout {
	case Layout1D:
		coords := sys.Mem.AllocStriped(t.NNZ())
		vals := sys.Mem.AllocStriped(t.NNZ())
		for n := 0; n < t.NNZ(); n++ {
			sys.Mem.Write(coords.At(n), packCoord(t.I[n], t.J[n], t.K[n]))
			sys.Mem.Write(vals.At(n), math.Float64bits(t.Val[n]))
		}
		return cilk.NewTimed(cilk.NewParallelFor(t.NNZ(), grain, func(lo, hi int) machine.CBody {
			return leaf(coords, vals, lo, hi)
		}), out), nil
	case Layout2D:
		nodelets := sys.Nodelets()
		perNL := make([]int, nodelets)
		for n := 0; n < t.NNZ(); n++ {
			perNL[int(t.I[n])%nodelets]++
		}
		coords := sys.Mem.AllocBlocked(perNL)
		vals := sys.Mem.AllocBlocked(perNL)
		fill := make([]int, nodelets)
		for n := 0; n < t.NNZ(); n++ {
			nl := int(t.I[n]) % nodelets
			sys.Mem.Write(coords.At(nl, fill[nl]), packCoord(t.I[n], t.J[n], t.K[n]))
			sys.Mem.Write(vals.At(nl, fill[nl]), math.Float64bits(t.Val[n]))
			fill[nl]++
		}
		fan := &cilk.Fanout{}
		for nl, count := range perNL {
			if count == 0 {
				continue
			}
			c, v := shard{coords, nl}, shard{vals, nl}
			fan.Add(nl, cilk.NewParallelFor(count, grain, func(lo, hi int) machine.CBody {
				return leaf(c, v, lo, hi)
			}))
		}
		return cilk.NewTimed(fan, out), nil
	}
	return nil, fmt.Errorf("tensor: unknown layout %v", layout)
}

// ttvLeaf contracts entries [n, hi): load the packed coordinates (migrating
// to the entry under Layout1D), the value and the local replica of v[k],
// post the product into Y(i, j), and charge the loop's compute.
type ttvLeaf struct {
	vr           memsys.Replicated
	ya           memsys.Striped
	cols         int
	coords, vals vector
	n, hi        int
	i, j, k      int32
	val          float64
	pc           uint8
}

func (w *ttvLeaf) Step(t *machine.CThread) bool {
	for {
		switch w.pc {
		case 0:
			if w.n >= w.hi {
				return true
			}
			w.pc = 1
			if t.CLoad(w.coords.At(w.n)) { // migrates to nodelet n mod N under 1D
				return false
			}
		case 1:
			w.i, w.j, w.k = unpackCoord(t.Value())
			w.pc = 2
			if t.CLoad(w.vals.At(w.n)) { // local: same stripe
				return false
			}
		case 2:
			w.val = math.Float64frombits(t.Value())
			w.pc = 3
			if t.CLoad(w.vr.At(t.Nodelet(), int(w.k))) {
				return false
			}
		case 3:
			vk := math.Float64frombits(t.Value())
			w.pc = 4
			if t.CRemoteAddFloat(w.ya.At(int(w.i)*w.cols+int(w.j)), w.val*vk) {
				return false
			}
		case 4:
			w.n++
			w.pc = 0
			if t.CCompute(ttvNNZCycles) {
				return false
			}
		}
	}
}

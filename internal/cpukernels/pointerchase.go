package cpukernels

import (
	"fmt"

	"emuchick/internal/metrics"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// ChaseConfig parameterizes the CPU pointer-chasing run: the same
// block-shuffled lists as the Emu kernel, laid out contiguously (16 bytes
// per element) in one allocation, split into one chain per thread.
type ChaseConfig struct {
	Elements  int
	BlockSize int
	Mode      workload.ShuffleMode
	Seed      uint64
	Threads   int
}

// ChaseStats exposes the memory-system event counts of a CPU chase run,
// feeding section V-B's proposed comparison metric ("cache misses avoided"
// is the inverse of the overfetch measured here).
type ChaseStats struct {
	DRAMLineBytes  int64 // bytes fetched from memory (64 B per line)
	WritebackBytes int64
}

// PointerChase walks the chains concurrently. Each element visit reads its
// 16 bytes (payload + next pointer); on the cache model that transfers a
// full 64-byte line on a miss — the inefficiency the paper highlights —
// while the traversal order determines line reuse, DRAM row locality, and
// whether the prefetcher can engage.
func PointerChase(ccfg xeon.Config, cfg ChaseConfig, opts ...RunOption) (metrics.Result, error) {
	res, _, err := PointerChaseWithStats(ccfg, cfg, opts...)
	return res, err
}

// PointerChaseWithStats is PointerChase plus the run's DRAM traffic.
func PointerChaseWithStats(ccfg xeon.Config, cfg ChaseConfig, opts ...RunOption) (metrics.Result, ChaseStats, error) {
	if cfg.Elements <= 0 || cfg.BlockSize <= 0 || cfg.Threads <= 0 {
		return metrics.Result{}, ChaseStats{}, fmt.Errorf("cpukernels: invalid chase config %+v", cfg)
	}
	sys := newRun(ccfg, opts)
	n := cfg.Elements
	base := sys.Alloc(int64(n) * 16)

	// Record the shuffled traversal order as the walk yields it. Visits
	// share(n, k, Threads) are thread k's chain, so worker k walks them in
	// order, issuing the reads the chain's links would lead it to; the
	// simulation never reads the links, so the host keeps none.
	order := make([]int32, n)
	workload.VisitList(n, cfg.BlockSize, cfg.Mode, workload.NewRNG(cfg.Seed), func(i, p int) {
		order[i] = int32(p)
	})

	elapsed, err := sys.Run(&task{d: &spawnTree{hi: cfg.Threads, worker: func(k int) xeon.CBody {
		// Threads from n on get an empty share and finish at once.
		lo, hi := share(n, k, cfg.Threads)
		return &chaseWorker{base: base, order: order[lo:hi]}
	}}})
	if err != nil {
		return metrics.Result{}, ChaseStats{}, err
	}
	res := metrics.Result{Bytes: int64(n) * 16, Elapsed: elapsed}
	stats := ChaseStats{
		DRAMLineBytes:  int64(sys.DRAMLines) * int64(ccfg.LineBytes),
		WritebackBytes: int64(sys.WritebackLines) * int64(ccfg.LineBytes),
	}
	return res, stats, nil
}

// chaseWorker walks one thread's chain: a 16-byte read (payload and next
// pointer) and the loop's compute per element, in visit order.
type chaseWorker struct {
	base  int64   // model base address of the list
	order []int32 // the chain's elements not yet visited
	pc    uint8
}

func (w *chaseWorker) Step(t *xeon.CThread) bool {
	for len(w.order) > 0 {
		switch w.pc {
		case 0:
			w.pc = 1
			if t.Read(w.base+int64(w.order[0])*16, 16) {
				return false
			}
		case 1:
			w.pc = 0
			w.order = w.order[1:]
			if t.Compute(4) {
				return false
			}
		}
	}
	return true
}

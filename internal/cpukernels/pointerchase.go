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

	// Link the shuffled traversal order into one chain per thread as the
	// walk yields it: visits share(n, k, Threads) are thread k's chain.
	// Each visited element ends its chain (-1) until the next visit of
	// the same chain links it on.
	next := make([]int32, n)
	starts := make([]int, cfg.Threads)
	expect := make([]uint64, cfg.Threads)
	k, end, prev := -1, 0, 0 // the current chain's thread, the visit that ends it, the last element
	workload.VisitList(n, cfg.BlockSize, cfg.Mode, workload.NewRNG(cfg.Seed), func(i, p int) {
		if i == end { // p opens thread k+1's chain
			k++
			_, end = share(n, k, cfg.Threads)
			starts[k] = p
		} else {
			next[prev] = int32(p)
		}
		next[p] = -1
		expect[k] += uint64(p) + 1
		prev = p
	})

	sums := make([]uint64, cfg.Threads)
	elapsed, err := sys.Run(&task{d: &spawnTree{hi: cfg.Threads, worker: func(k int) xeon.CBody {
		// Threads from n on have no chain: share gives each of the first
		// min(Threads, n) threads at least one element.
		return &chaseWorker{base: base, next: next, sum: &sums[k], p: starts[k], empty: k >= n}
	}}})
	if err != nil {
		return metrics.Result{}, ChaseStats{}, err
	}
	for k := range sums {
		if sums[k] != expect[k] {
			return metrics.Result{}, ChaseStats{}, fmt.Errorf("cpukernels: chase thread %d sum %d, want %d", k, sums[k], expect[k])
		}
	}
	res := metrics.Result{Bytes: int64(n) * 16, Elapsed: elapsed}
	stats := ChaseStats{
		DRAMLineBytes:  int64(sys.DRAMLines) * int64(ccfg.LineBytes),
		WritebackBytes: int64(sys.WritebackLines) * int64(ccfg.LineBytes),
	}
	return res, stats, nil
}

// chaseWorker walks one chain from element p: a 16-byte read (payload and
// next pointer) and the loop's compute per element, until the terminator.
// Element p's payload is p+1, so the walk sums it without a host array.
type chaseWorker struct {
	base  int64 // model base address of the list
	next  []int32
	sum   *uint64
	p     int
	empty bool // the thread's share of the list is empty
	pc    uint8
}

func (w *chaseWorker) Step(t *xeon.CThread) bool {
	if w.empty {
		return true
	}
	for {
		switch w.pc {
		case 0:
			w.pc = 1
			if t.Read(w.base+int64(w.p)*16, 16) {
				return false
			}
		case 1:
			*w.sum += uint64(w.p) + 1
			w.pc = 2
			if t.Compute(4) {
				return false
			}
		case 2:
			if w.next[w.p] < 0 {
				return true
			}
			w.p = int(w.next[w.p])
			w.pc = 0
		}
	}
}

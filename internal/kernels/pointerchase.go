package kernels

import (
	"fmt"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/metrics"
	"emuchick/internal/sim"
	"emuchick/internal/workload"
)

// chaseOverheadCycles is the per-element cost of the list-walk loop beyond
// its two loads (pointer compare, sum update, branch). The walk is not
// hand-tuned the way STREAM is, which is why pointer chasing settles at
// ~80% of the STREAM peak on the Emu (Fig. 8).
const chaseOverheadCycles = 16

// endOfList is the next-pointer sentinel. Addr 0 is a valid address, so the
// terminator is all-ones instead.
const endOfList = ^uint64(0)

// ChaseConfig parameterizes one pointer-chasing run (section III-E).
type ChaseConfig struct {
	Elements  int // list elements; each is 16 bytes (payload + next)
	BlockSize int // elements per locality block
	Mode      workload.ShuffleMode
	Seed      uint64
	Threads   int
	Nodelets  int // nodelets the blocks round-robin across
}

// ChaseStats exposes the machine-side event counts of a pointer-chase run,
// feeding the comparison metric section V-B proposes ("network traffic,
// i.e. threads migrated measured using context size and time").
type ChaseStats struct {
	Migrations     uint64
	MigrationBytes int64 // Migrations x thread-context size
}

// PointerChase builds a block-shuffled linked list laid out block-by-block
// across nodelets (block b on nodelet b mod N), splits it into one chain
// per thread, and times all threads walking their chains concurrently.
// Every element visit is two data-dependent 8-byte loads; entering a block
// that lives on another nodelet migrates the thread.
func PointerChase(mcfg machine.Config, cfg ChaseConfig, opts ...RunOption) (metrics.Result, error) {
	res, _, err := PointerChaseWithStats(mcfg, cfg, opts...)
	return res, err
}

// PointerChaseWithStats is PointerChase plus the run's migration counts.
func PointerChaseWithStats(mcfg machine.Config, cfg ChaseConfig, opts ...RunOption) (metrics.Result, ChaseStats, error) {
	if cfg.Elements <= 0 || cfg.BlockSize <= 0 || cfg.Threads <= 0 || cfg.Nodelets <= 0 {
		return metrics.Result{}, ChaseStats{}, fmt.Errorf("kernels: invalid chase config %+v", cfg)
	}
	sys := newSystem(mcfg, opts...)
	if cfg.Nodelets > sys.Nodelets() {
		return metrics.Result{}, ChaseStats{}, fmt.Errorf("kernels: chase wants %d nodelets, machine has %d",
			cfg.Nodelets, sys.Nodelets())
	}

	// Block b (elements [b*bs, min((b+1)*bs, n))) lives contiguously on
	// nodelet b mod N. blockBase[b] is its word offset in that nodelet's
	// chunk.
	n, bs := cfg.Elements, cfg.BlockSize
	numBlocks := (n + bs - 1) / bs
	blockBase := make([]int, numBlocks)
	perNodelet := make([]int, sys.Nodelets())
	for b := 0; b < numBlocks; b++ {
		nl := b % cfg.Nodelets
		blockBase[b] = perNodelet[nl]
		lo, hi := b*bs, (b+1)*bs
		if hi > n {
			hi = n
		}
		perNodelet[nl] += 2 * (hi - lo)
	}
	list := sys.Mem.AllocBlocked(perNodelet)

	// addrOf returns the payload address of element position p; its next
	// pointer is the following word.
	addrOf := func(p int) memsys.Addr {
		b := p / bs
		w := p % bs
		return list.At(b%cfg.Nodelets, blockBase[b]+2*w)
	}

	// Link the shuffled traversal order into one chain per thread and
	// record each thread's expected payload sum.
	order := workload.ListOrder(n, bs, cfg.Mode, workload.NewRNG(cfg.Seed))
	starts := make([]memsys.Addr, cfg.Threads)
	expect := make([]uint64, cfg.Threads)
	counts := make([]int, cfg.Threads)
	for k := 0; k < cfg.Threads; k++ {
		lo, hi := share(n, k, cfg.Threads)
		counts[k] = hi - lo
		if lo == hi {
			continue
		}
		starts[k] = addrOf(order[lo])
		for j := lo; j < hi; j++ {
			p := order[j]
			sys.Mem.Write(addrOf(p), uint64(p)+1)
			expect[k] += uint64(p) + 1
			next := endOfList
			if j+1 < hi {
				next = uint64(addrOf(order[j+1]))
			}
			sys.Mem.Write(addrOf(p).Plus(1), next)
		}
	}

	// Workers spawn at their chain's first block via a recursive
	// remote-spawn tree — the "smart" placement and spawning of
	// section V-A.
	groups := make([][]int, sys.Nodelets())
	for k := 0; k < cfg.Threads; k++ {
		if counts[k] == 0 {
			continue
		}
		nl := starts[k].Nodelet()
		groups[nl] = append(groups[nl], k)
	}

	sums := make([]uint64, cfg.Threads)
	var res metrics.Result
	if _, err := sys.RunCont(chaseRoot(groups, starts, sums, &res.Elapsed)); err != nil {
		return metrics.Result{}, ChaseStats{}, err
	}
	for k := range sums {
		if sums[k] != expect[k] {
			return metrics.Result{}, ChaseStats{}, fmt.Errorf("kernels: chase thread %d sum %d, want %d", k, sums[k], expect[k])
		}
	}
	res.Bytes = int64(n) * 16
	stats := ChaseStats{Migrations: sys.Counters.TotalMigrations()}
	stats.MigrationBytes = int64(stats.Migrations) * mcfg.ContextBytes
	return res, stats, nil
}

// chaseWorker walks one pointer chain: two dependent loads and the loop
// overhead per element, until the end-of-list sentinel.
type chaseWorker struct {
	sums []uint64
	k    int
	addr memsys.Addr
	sum  uint64
	next uint64
	pc   int
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (w *chaseWorker) Step(t *machine.CThread) bool {
	for {
		switch w.pc {
		case 0: // payload load
			w.pc = 1
			if t.CLoad(w.addr) {
				return false
			}
		case 1: // next-pointer load
			w.sum += t.Value()
			w.pc = 2
			if t.CLoad(w.addr.Plus(1)) {
				return false
			}
		case 2: // loop overhead
			w.next = t.Value()
			w.pc = 3
			if t.CCompute(chaseOverheadCycles) {
				return false
			}
		case 3:
			if w.next == endOfList {
				w.sums[w.k] = w.sum
				return true
			}
			w.addr = memsys.Addr(w.next)
			w.pc = 0
		}
	}
}

// chaseRoot builds the root body of one pointer-chase run: spawn one worker
// per chain at its first element's nodelet, join them, and record the
// elapsed time.
func chaseRoot(groups [][]int, starts []memsys.Addr, sums []uint64, out *sim.Time) machine.CBody {
	g := cilk.NewGrouped(groups, func(k int) machine.CBody {
		return &chaseWorker{sums: sums, k: k, addr: starts[k]}
	})
	return &timedRoot{drive: g, out: out}
}

package kernels

import (
	"fmt"
	"testing"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/sparse"
	"emuchick/internal/trace"
	"emuchick/internal/workload"
)

// End-of-run conservation checks for the STREAM, SpMV, SpMV-CSX, GUPS and
// pointer-chase kernels. Unlike the golden digests, these do not compare
// against a recording: each derives what the run must have done from the
// array sizes, the matrix, the update stream or the list order alone —
// every timed load, every y write, every atomic, every spawn of the
// ParallelFor tree, every migration between blocks — and fails on its own
// when the model or a kernel body drops or duplicates an operation.

// opCounter tallies the event stream by kind.
type opCounter struct {
	loads, stores, remoteStores, atomics int
	spawns, starts, ends                 int
	migOut, migIn                        map[int]int
	selfMigrations                       int
}

func newOpCounter() *opCounter {
	return &opCounter{migOut: map[int]int{}, migIn: map[int]int{}}
}

func (c *opCounter) Event(e trace.Event) {
	switch e.Kind {
	case trace.KindLoad:
		c.loads++
	case trace.KindStore:
		c.stores++
	case trace.KindRemoteStore:
		c.remoteStores++
	case trace.KindAtomic:
		c.atomics++
	case trace.KindSpawn:
		c.spawns++
	case trace.KindThreadStart:
		c.starts++
	case trace.KindThreadEnd:
		c.ends++
	case trace.KindMigrate:
		c.migOut[e.Nodelet]++
		c.migIn[e.Target]++
		if e.Nodelet == e.Target {
			c.selfMigrations++
		}
	}
}

func (c *opCounter) Sample(trace.Sample) {}

func (c *opCounter) migrations() (out, in int) {
	for _, n := range c.migOut {
		out += n
	}
	for _, n := range c.migIn {
		in += n
	}
	return out, in
}

// check asserts the invariants every run shares: threads are conserved (the
// main thread plus one per spawn, each of which finished), and so are
// migrations (every departure arrives somewhere else).
func (c *opCounter) check(t *testing.T, label string) {
	t.Helper()
	if c.starts != c.spawns+1 || c.ends != c.starts {
		t.Errorf("%s: %d spawns, %d thread starts, %d thread ends", label, c.spawns, c.starts, c.ends)
	}
	if out, in := c.migrations(); out != in || c.selfMigrations != 0 {
		t.Errorf("%s: %d migrations out, %d in, %d to their own nodelet", label, out, in, c.selfMigrations)
	}
}

// parForLeaves counts the leaf ranges ParallelFor splits n iterations into:
// a range larger than grain gives its lower half to a spawned coordinator
// and splits its upper half again, so every leaf but the first is one spawn.
func parForLeaves(n, grain int) int {
	if n <= grain {
		return 1
	}
	return parForLeaves(n/2, grain) + parForLeaves(n-n/2, grain)
}

// TestStreamConservation derives a STREAM run from its config: every one
// of the n elements is loaded once per input array and stored once, by a
// worker on the element's own nodelet, so nothing is posted and nothing is
// atomic. A local-spawn strategy starts every worker on nodelet 0, and a
// worker serving another nodelet migrates there once, at its first load;
// a remote-spawn strategy starts each worker on its nodelet, so nothing
// migrates. 40 elements per nodelet give every one of the 37 workers a
// share.
func TestStreamConservation(t *testing.T) {
	inputs := map[StreamKernel]int{StreamCopyKernel: 1, StreamScaleKernel: 1, StreamAddKernel: 2, StreamTriadKernel: 2}
	for _, k := range StreamKernels {
		for _, strat := range cilk.Strategies {
			for _, nodelets := range []int{1, 8} {
				cfg := StreamConfig{Kernel: k, ElemsPerNodelet: 40, Nodelets: nodelets, Threads: 37, Strategy: strat}
				label := fmt.Sprintf("%v/%v/%d-nodelet", k, strat, nodelets)
				c := newOpCounter()
				if _, err := Stream(machine.HardwareChick(), cfg, WithObserver(c)); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				c.check(t, label)
				n := cfg.ElemsPerNodelet * nodelets
				if want := n * inputs[k]; c.loads != want {
					t.Errorf("%s: %d timed loads, want %d elements × %d input arrays = %d", label, c.loads, n, inputs[k], want)
				}
				if c.stores != n || c.remoteStores+c.atomics != 0 {
					t.Errorf("%s: %d local stores (want %d), %d remote stores, %d atomics", label, c.stores, n, c.remoteStores, c.atomics)
				}
				// Worker id serves nodelet id mod nodelets, so
				// ceil(Threads/nodelets) of them serve nodelet 0.
				want := 0
				if !strat.Remote() {
					want = cfg.Threads - (cfg.Threads+nodelets-1)/nodelets
				}
				if out, _ := c.migrations(); out != want {
					t.Errorf("%s: %d migrations, want %d", label, out, want)
				}
			}
		}
	}
}

func TestSpMVConservation(t *testing.T) {
	const gridN = 12
	m := sparse.Laplacian2D(gridN)
	rows, nnz := m.Rows, m.NNZ()
	for _, layout := range SpMVLayouts {
		for _, stripe := range []bool{false, true} {
			for _, grain := range []int{5, 16, 64} {
				label := fmt.Sprintf("%v/stripe=%v/g%d", layout, stripe, grain)
				c := newOpCounter()
				if _, err := SpMV(machine.HardwareChick(), SpMVConfig{
					GridN: gridN, Layout: layout, GrainNNZ: grain, StripeX: stripe,
				}, WithObserver(c)); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				c.check(t, label)
				if want := 2*rows + 3*nnz; c.loads != want {
					t.Errorf("%s: %d timed loads, want 2*rows + 3*nnz = %d", label, c.loads, want)
				}
				if got := c.stores + c.remoteStores; got != rows {
					t.Errorf("%s: %d y writes (%d local + %d posted), want one per row = %d",
						label, got, c.stores, c.remoteStores, rows)
				}
				if c.atomics != 0 {
					t.Errorf("%s: %d atomics", label, c.atomics)
				}
				grainRows := spmvGrainRows(grain)
				wantSpawns := parForLeaves(rows, grainRows) - 1
				if layout == SpMV2D {
					wantSpawns = 0
					part := sparse.PartitionRows(m, machine.HardwareChick().TotalNodelets())
					for _, shardRows := range part.RowsOf {
						if len(shardRows) > 0 {
							wantSpawns += parForLeaves(len(shardRows), grainRows) // coordinator + its tree
						}
					}
				}
				if c.spawns != wantSpawns {
					t.Errorf("%s: %d spawns, want %d", label, c.spawns, wantSpawns)
				}
				out, _ := c.migrations()
				switch {
				case layout == SpMV2D && !stripe && out != 0:
					t.Errorf("%s: replicated-x 2D layout migrated %d times", label, out)
				case layout == SpMVLocal && out != 0:
					t.Errorf("%s: local layout migrated %d times", label, out)
				case layout == SpMV1D && out == 0:
					t.Errorf("%s: striped matrix never migrated", label)
				}
			}
		}
	}
}

func TestSpMVCSXConservation(t *testing.T) {
	const gridN = 12
	m := sparse.Laplacian2D(gridN)
	x, err := sparse.EncodeCSX(m)
	if err != nil {
		t.Fatal(err)
	}
	var deltaWords int
	for _, ws := range x.DeltaWords {
		deltaWords += len(ws)
	}
	for _, mcfg := range []machine.Config{machine.HardwareChick(), machine.FullSpeed(1)} {
		for _, grain := range []int{5, 16, 64} {
			label := fmt.Sprintf("%d-nodelet/g%d", mcfg.TotalNodelets(), grain)
			c := newOpCounter()
			if _, err := SpMVCSX(mcfg, SpMVCSXConfig{GridN: gridN, GrainNNZ: grain}, WithObserver(c)); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			c.check(t, label)
			// Four metadata words per row; per nonzero its value and x[col];
			// plus each packed delta word once.
			if want := 4*m.Rows + 2*m.NNZ() + deltaWords; c.loads != want {
				t.Errorf("%s: %d timed loads, want %d", label, c.loads, want)
			}
			if got := c.stores + c.remoteStores; got != m.Rows {
				t.Errorf("%s: %d y writes, want %d", label, got, m.Rows)
			}
			if out, _ := c.migrations(); out != 0 {
				t.Errorf("%s: migrated %d times", label, out)
			}
		}
	}
}

func TestGUPSConservation(t *testing.T) {
	for _, cfg := range []GUPSConfig{
		{TableWords: 256, Updates: 2048, Threads: 32, Seed: 1},
		{TableWords: 1000, Updates: 777, Threads: 100, Seed: 9},
		{TableWords: 64, Updates: 20, Threads: 48, Seed: 3},
	} {
		label := fmt.Sprintf("%+v", cfg)
		c := newOpCounter()
		if _, err := GUPS(machine.HardwareChick(), cfg, WithObserver(c)); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		c.check(t, label)
		if c.atomics != cfg.Updates {
			t.Errorf("%s: %d atomics, want %d", label, c.atomics, cfg.Updates)
		}
		if c.loads+c.stores+c.remoteStores != 0 {
			t.Errorf("%s: %d loads, %d stores, %d remote stores; GUPS only posts atomics",
				label, c.loads, c.stores, c.remoteStores)
		}
		if want := min(cfg.Threads, cfg.Updates); c.spawns != want {
			t.Errorf("%s: %d spawns, want one per thread with updates = %d", label, c.spawns, want)
		}
		if out, _ := c.migrations(); out != 0 {
			t.Errorf("%s: migrated %d times", label, out)
		}
	}
}

// chaseMigrations derives a chase's migration count from its list order:
// thread k walks visits share(n, k, Threads) and starts on its first
// element's nodelet, so it migrates once per consecutive pair of its
// elements whose blocks live on different nodelets (block b on b mod
// Nodelets).
func chaseMigrations(cfg ChaseConfig) int {
	order := make([]int, cfg.Elements)
	workload.VisitList(cfg.Elements, cfg.BlockSize, cfg.Mode, workload.NewRNG(cfg.Seed),
		func(i, p int) { order[i] = p })
	nodelet := func(p int) int { return p / cfg.BlockSize % cfg.Nodelets }
	migrations := 0
	for k := 0; k < cfg.Threads; k++ {
		lo, hi := share(cfg.Elements, k, cfg.Threads)
		for j := lo + 1; j < hi; j++ {
			if nodelet(order[j]) != nodelet(order[j-1]) {
				migrations++
			}
		}
	}
	return migrations
}

func TestPointerChaseConservation(t *testing.T) {
	for _, tc := range []struct {
		cfg  ChaseConfig
		want int // migrations, as derived when the case was written
	}{
		{ChaseConfig{Elements: 1000, BlockSize: 7, Mode: workload.IntraBlockShuffle, Seed: 3, Threads: 33, Nodelets: 5}, 138},
		{ChaseConfig{Elements: 50, BlockSize: 64, Mode: workload.FullBlockShuffle, Seed: 1, Threads: 100, Nodelets: 8}, 0},
		{ChaseConfig{Elements: 4096, BlockSize: 1, Mode: workload.FullBlockShuffle, Seed: 7, Threads: 64, Nodelets: 8}, 3492},
		{ChaseConfig{Elements: 777, BlockSize: 16, Mode: workload.BlockShuffle, Seed: 9, Threads: 12, Nodelets: 3}, 30},
		{ChaseConfig{Elements: 2048, BlockSize: 5, Mode: workload.NoShuffle, Seed: 2, Threads: 256, Nodelets: 8}, 358},
	} {
		cfg := tc.cfg
		label := fmt.Sprintf("%+v", cfg)
		c := newOpCounter()
		if _, err := PointerChase(machine.HardwareChick(), cfg, WithObserver(c)); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		c.check(t, label)
		if want := 2 * cfg.Elements; c.loads != want {
			t.Errorf("%s: %d timed loads, want payload + next per element = %d", label, c.loads, want)
		}
		if c.stores+c.remoteStores+c.atomics != 0 {
			t.Errorf("%s: %d stores, %d remote stores, %d atomics; the walk only loads",
				label, c.stores, c.remoteStores, c.atomics)
		}
		want := chaseMigrations(cfg)
		if want != tc.want {
			t.Errorf("%s: derived %d migrations, want %d", label, want, tc.want)
		}
		if out, _ := c.migrations(); out != want {
			t.Errorf("%s: %d migrations, want %d block changes within the threads' shares", label, out, want)
		}
	}
}

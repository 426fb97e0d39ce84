package kernels

import (
	"fmt"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/metrics"
	"emuchick/internal/workload"
)

// GUPSConfig parameterizes a RandomAccess-style kernel. The paper uses
// GUPS as the nearest relative of pointer chasing ("GUPS lacks
// data-dependent loads, and pointer chase does not modify the list"), so
// the kernel exists both as a comparison workload and as an exercise of
// the memory-side atomic path.
type GUPSConfig struct {
	TableWords int // striped table size in 8-byte words
	Updates    int // total updates to perform
	Threads    int
	Seed       uint64
}

// gupsUpdateCycles is the per-update loop overhead: index fetch, address
// arithmetic, branch.
const gupsUpdateCycles = 4

// GUPS performs random read-modify-write updates over a striped table
// using posted memory-side atomics (no thread ever migrates), and reports
// the update bandwidth at 8 bytes per update.
func GUPS(mcfg machine.Config, cfg GUPSConfig, opts ...RunOption) (metrics.Result, error) {
	if cfg.TableWords <= 0 || cfg.Updates <= 0 || cfg.Threads <= 0 {
		return metrics.Result{}, fmt.Errorf("kernels: invalid GUPS config %+v", cfg)
	}
	sys := newSystem(mcfg, opts...)
	table := sys.Mem.AllocStriped(cfg.TableWords)
	stream := workload.GUPSStream(cfg.Updates, cfg.TableWords, workload.NewRNG(cfg.Seed))

	// Reference: count how many times each slot is bumped.
	want := make([]uint64, cfg.TableWords)
	for _, idx := range stream {
		want[idx]++
	}

	// Thread k takes the k-th contiguous share of the stream and starts on
	// nodelet k mod N; threads left without updates are never spawned.
	nodelets := sys.Nodelets()
	fan := &cilk.Fanout{}
	for k := 0; k < cfg.Threads; k++ {
		if lo, hi := share(cfg.Updates, k, cfg.Threads); lo < hi {
			fan.Add(k%nodelets, &gupsWorker{table: table, idx: stream[lo:hi]})
		}
	}
	var res metrics.Result
	if _, err := sys.Run(cilk.NewTimed(fan, &res.Elapsed)); err != nil {
		return metrics.Result{}, err
	}
	for i, w := range want {
		if got := sys.Mem.Read(table.At(i)); got != w {
			return metrics.Result{}, fmt.Errorf("kernels: GUPS slot %d = %d, want %d", i, got, w)
		}
	}
	if m := sys.Counters.TotalMigrations(); m != 0 {
		return metrics.Result{}, fmt.Errorf("kernels: GUPS migrated %d times; atomics must not migrate", m)
	}
	res.Bytes = int64(cfg.Updates) * 8
	return res, nil
}

// gupsWorker posts one remote add per table index, charging the loop
// overhead after each.
type gupsWorker struct {
	table  memsys.Striped
	idx    []int
	posted bool
}

func (w *gupsWorker) Step(t *machine.CThread) bool {
	for len(w.idx) > 0 {
		if !w.posted {
			w.posted = true
			if t.CRemoteAdd(w.table.At(w.idx[0]), 1) {
				return false
			}
		}
		w.posted = false
		w.idx = w.idx[1:]
		if t.CCompute(gupsUpdateCycles) {
			return false
		}
	}
	return true
}

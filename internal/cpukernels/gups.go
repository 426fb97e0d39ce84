package cpukernels

import (
	"fmt"

	"emuchick/internal/metrics"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// GUPSConfig parameterizes the CPU RandomAccess-style kernel, the
// counterpart of kernels.GUPS for the Xeon models.
type GUPSConfig struct {
	TableWords int
	Updates    int
	Threads    int
	Seed       uint64
}

// GUPS performs random read-modify-write updates over a contiguous table.
// On the cache model each out-of-cache update fetches a full 64-byte line
// to touch 8 bytes — the same line-utilization penalty pointer chasing
// exposes, minus the data-dependent serialization.
func GUPS(ccfg xeon.Config, cfg GUPSConfig) (metrics.Result, error) {
	if cfg.TableWords <= 0 || cfg.Updates <= 0 || cfg.Threads <= 0 {
		return metrics.Result{}, fmt.Errorf("cpukernels: invalid GUPS config %+v", cfg)
	}
	sys := newSystem(ccfg)
	base := sys.Alloc(int64(cfg.TableWords) * 8)
	stream := workload.GUPSStream(cfg.Updates, cfg.TableWords, workload.NewRNG(cfg.Seed))
	table := make([]uint64, cfg.TableWords)

	want := make([]uint64, cfg.TableWords)
	for _, idx := range stream {
		want[idx]++
	}

	elapsed, err := sys.Run(&task{d: &spawnTree{hi: cfg.Threads, worker: func(w int) xeon.CBody {
		lo, hi := share(cfg.Updates, w, cfg.Threads)
		return &gupsWorker{base: base, stream: stream[lo:hi], table: table}
	}}})
	if err != nil {
		return metrics.Result{}, err
	}
	for i := range want {
		if table[i] != want[i] {
			return metrics.Result{}, fmt.Errorf("cpukernels: GUPS slot %d = %d, want %d", i, table[i], want[i])
		}
	}
	return metrics.Result{Bytes: int64(cfg.Updates) * 8, Elapsed: elapsed}, nil
}

// gupsWorker applies its share of the update stream: read the slot, update
// it functionally (one writer per run), write it back, two cycles.
type gupsWorker struct {
	base   int64 // model base address of the table
	stream []int // remaining updates; stream[0] is in flight
	table  []uint64
	pc     uint8
}

func (w *gupsWorker) Step(t *xeon.CThread) bool {
	for len(w.stream) > 0 {
		idx := w.stream[0]
		addr := w.base + int64(idx)*8
		switch w.pc {
		case 0:
			w.pc = 1
			if t.Read(addr, 8) {
				return false
			}
		case 1:
			w.table[idx]++
			w.pc = 2
			if t.Write(addr, 8) {
				return false
			}
		case 2:
			w.pc = 0
			w.stream = w.stream[1:]
			if t.Compute(2) {
				return false
			}
		}
	}
	return true
}

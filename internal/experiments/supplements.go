package experiments

import (
	"emuchick/internal/cpukernels"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// Supplementary experiments: not figures of the paper, but direct
// executions of things the paper describes in prose — the three shuffle
// modes of Fig. 2 as a sensitivity study, and the novel comparison metric
// section V-B proposes.

func init() {
	register(&Experiment{
		ID:    "supplement-shuffle-modes",
		Title: "Pointer-chasing sensitivity to the three shuffle modes, Emu vs Xeon",
		Paper: "Section III-E defines intra_block, block, and full shuffles; " +
			"the Emu's cache-less memory should be insensitive to which one " +
			"is applied, while the Xeon's prefetcher and row buffers care.",
		Runner: runSupplementShuffleModes,
	})
	register(&Experiment{
		ID:    "supplement-vb-metric",
		Title: "Section V-B's proposed cross-architecture metric on pointer chasing",
		Paper: "Section V-B: compare 'network traffic (threads migrated " +
			"measured using context size and time, or B/s)' on the Emu with " +
			"the cache-line overfetch ('cache misses avoided') on the CPU.",
		Runner: runSupplementVBMetric,
	})
}

func runSupplementShuffleModes(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	emuElems, xeonElems := 16384, 1<<18
	blocks := []int{4, 32, 256}
	trials := min(o.Trials, 3)
	if o.Quick {
		emuElems, xeonElems = 4096, 1<<14
		blocks = []int{4, 64}
		trials = 2
	}
	modes := []workload.ShuffleMode{
		workload.IntraBlockShuffle, workload.BlockShuffle, workload.FullBlockShuffle,
	}
	names := make([]string, len(modes))
	for i, mode := range modes {
		names[i] = mode.String()
	}

	emuStats, err := sweep{series: len(modes), points: len(blocks), trials: trials}.run(o,
		func(o Options, si, pi, trial int) (float64, error) {
			res, err := kernels.PointerChase(machine.HardwareChick(), kernels.ChaseConfig{
				Elements: emuElems, BlockSize: blocks[pi], Mode: modes[si],
				Seed: uint64(trial)*101 + 13, Threads: 256, Nodelets: 8,
			}, o.KernelOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	emu := &metrics.Figure{
		ID:     "supplement-shuffle-emu",
		Title:  "Pointer chasing by shuffle mode (Emu Chick, 256 threads)",
		XLabel: "block size (elements)",
		YLabel: "MB/s",
		Series: assemble(names, xsOf(blocks), emuStats),
	}

	cpuStats, err := sweep{series: len(modes), points: len(blocks), trials: trials}.run(o,
		func(o Options, si, pi, trial int) (float64, error) {
			res, err := cpukernels.PointerChase(xeon.SandyBridgeXeon(), cpukernels.ChaseConfig{
				Elements: xeonElems, BlockSize: blocks[pi], Mode: modes[si],
				Seed: uint64(trial)*103 + 7, Threads: 32,
			}, o.xeonOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	cpu := &metrics.Figure{
		ID:     "supplement-shuffle-xeon",
		Title:  "Pointer chasing by shuffle mode (Sandy Bridge, 32 threads)",
		XLabel: "block size (elements)",
		YLabel: "MB/s",
		Series: assemble(names, xsOf(blocks), cpuStats),
	}
	return []*metrics.Figure{emu, cpu}, nil
}

func runSupplementVBMetric(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	// The Xeon list must exceed the L3 or there is no overfetch to see.
	emuElems, xeonElems := 16384, 1<<21
	blocks := []int{1, 4, 16, 64, 256, 1024}
	if o.Quick {
		emuElems, xeonElems = 4096, 1<<14
		blocks = []int{1, 16, 256}
	}
	fig := &metrics.Figure{
		ID: "supplement-vb-metric",
		Title: "Section V-B metric: data moved beyond the useful bytes " +
			"(Emu: migrated thread contexts; Xeon: cache-line overfetch + writebacks)",
		XLabel: "block size (elements)",
		YLabel: "overhead bytes per useful byte",
	}
	stats, err := sweep{series: 2, points: len(blocks)}.run(o,
		func(o Options, si, pi, _ int) (float64, error) {
			if si == 0 {
				res, st, err := kernels.PointerChaseWithStats(machine.HardwareChick(), kernels.ChaseConfig{
					Elements: emuElems, BlockSize: blocks[pi], Mode: workload.FullBlockShuffle,
					Seed: 17, Threads: 256, Nodelets: 8,
				}, o.KernelOptions()...)
				if err != nil {
					return 0, err
				}
				return float64(st.MigrationBytes) / float64(res.Bytes), nil
			}
			cres, cst, err := cpukernels.PointerChaseWithStats(xeon.SandyBridgeXeon(), cpukernels.ChaseConfig{
				Elements: xeonElems, BlockSize: blocks[pi], Mode: workload.FullBlockShuffle,
				Seed: 19, Threads: 32,
			}, o.xeonOptions()...)
			if err != nil {
				return 0, err
			}
			over := float64(cst.DRAMLineBytes+cst.WritebackBytes-cres.Bytes) / float64(cres.Bytes)
			if over < 0 {
				over = 0 // cached runs can fetch less than the useful count
			}
			return over, nil
		})
	if err != nil {
		return nil, err
	}
	fig.Series = assemble([]string{"emu_migration_traffic", "xeon_overfetch"}, xsOf(blocks), stats)
	return []*metrics.Figure{fig}, nil
}

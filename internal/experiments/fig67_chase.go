package experiments

import (
	"emuchick/internal/cpukernels"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

func init() {
	register(&Experiment{
		ID:    "fig6",
		Title: "Pointer chasing on the Emu Chick (8 nodelets) vs block size",
		Paper: "Bandwidth is flat across block sizes (no spatial-locality " +
			"sensitivity), except a deep dip at block size 1 where every " +
			"element migrates; performance recovers by block ~4.",
		Runner: runFig6,
	})
	register(&Experiment{
		ID:    "fig7",
		Title: "Pointer chasing on Sandy Bridge Xeon vs block size",
		Paper: "Small blocks waste 3/4 of each cache line; best performance " +
			"between 256 and 4096 elements (~one 8 KiB DRAM page); declines " +
			"beyond a page.",
		Runner: runFig7,
	})
}

func chaseBlocks(quick bool) []int {
	if quick {
		return []int{1, 8, 64, 512}
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}

func threadSeriesNames(threadSets []int) []string {
	names := make([]string, len(threadSets))
	for i, th := range threadSets {
		names[i] = seriesName("threads", th)
	}
	return names
}

func runFig6(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	// The list must be much larger than threads x largest block so that
	// every nodelet stays populated at the top of the block sweep.
	elements := 65536
	threadSets := []int{64, 128, 256, 512}
	trials := min(o.Trials, 5)
	if o.Quick {
		elements = 8192
		threadSets = []int{64, 256}
	}
	blocks := chaseBlocks(o.Quick)
	stats, err := sweep{series: len(threadSets), points: len(blocks), trials: trials}.run(o,
		func(o Options, si, pi, trial int) (float64, error) {
			res, err := kernels.PointerChase(machine.HardwareChick(), kernels.ChaseConfig{
				Elements: elements, BlockSize: blocks[pi], Mode: workload.FullBlockShuffle,
				Seed: uint64(trial)*1009 + 1, Threads: threadSets[si], Nodelets: 8,
			}, o.KernelOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	fig := &metrics.Figure{
		ID:     "fig6",
		Title:  "Pointer chasing (Emu Chick, 8 nodelets, full_block_shuffle)",
		XLabel: "block size (elements)",
		YLabel: "MB/s",
		Series: assemble(threadSeriesNames(threadSets), xsOf(blocks), stats),
	}
	return []*metrics.Figure{fig}, nil
}

func runFig7(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	// The Xeon's cache-line and DRAM-page behaviour only emerges when the
	// list exceeds the L3 (20 MiB), so the full sweep walks a 32 MiB
	// list; trials are capped because the per-access cache model makes
	// these the costliest runs of the suite.
	elements := 1 << 21
	threadSets := []int{1, 8, 32}
	trials := min(o.Trials, 2)
	if o.Quick {
		elements = 1 << 16
		threadSets = []int{4, 32}
	}
	blocks := chaseBlocks(o.Quick)
	stats, err := sweep{series: len(threadSets), points: len(blocks), trials: trials}.run(o,
		func(o Options, si, pi, trial int) (float64, error) {
			res, err := cpukernels.PointerChase(xeon.SandyBridgeXeon(), cpukernels.ChaseConfig{
				Elements: elements, BlockSize: blocks[pi], Mode: workload.FullBlockShuffle,
				Seed: uint64(trial)*2027 + 1, Threads: threadSets[si],
			}, o.xeonOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	fig := &metrics.Figure{
		ID:     "fig7",
		Title:  "Pointer chasing (Sandy Bridge Xeon, full_block_shuffle)",
		XLabel: "block size (elements)",
		YLabel: "MB/s",
		Series: assemble(threadSeriesNames(threadSets), xsOf(blocks), stats),
	}
	return []*metrics.Figure{fig}, nil
}

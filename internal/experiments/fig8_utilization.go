package experiments

import (
	"math"

	"emuchick/internal/cilk"
	"emuchick/internal/cpukernels"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

func init() {
	register(&Experiment{
		ID:    "fig8",
		Title: "Pointer-chasing bandwidth utilization, Emu vs Sandy Bridge",
		Paper: "Normalized to each system's measured STREAM peak, the Emu " +
			"sustains ~80% across block sizes (50% in the worst cases), " +
			"while the Xeon stays below ~25% except at multi-KiB blocks.",
		Runner: runFig8,
	})
}

// measuredStreamPeakEmu runs the best STREAM configuration and returns its
// bandwidth in B/s — the normalization denominator the paper uses ("the
// best result on the STREAM benchmark").
func measuredStreamPeakEmu(o Options) (float64, error) {
	elems := 2048
	if o.Quick {
		elems = 1024
	}
	res, err := kernels.StreamAdd(machine.HardwareChick(), kernels.StreamConfig{
		ElemsPerNodelet: elems, Nodelets: 8, Threads: 512, Strategy: cilk.RecursiveRemoteSpawn,
	}, o.KernelOptions()...)
	if err != nil {
		return 0, err
	}
	return res.BytesPerSec(), nil
}

func measuredStreamPeakXeon(o Options) (float64, error) {
	elems := 1 << 18
	if o.Quick {
		elems = 1 << 16
	}
	res, err := cpukernels.StreamAdd(xeon.SandyBridgeXeon(), cpukernels.StreamConfig{
		Elements: elems, Threads: 32,
	}, o.xeonOptions()...)
	if err != nil {
		return 0, err
	}
	return res.BytesPerSec(), nil
}

func runFig8(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	// The two normalization peaks are sweep 0, the chase cells sweep 1. A
	// failed peak is a NaN hole, and so is every chase cell divided by it.
	peaks, err := sweep{series: 1, points: 2}.run(o, func(o Options, _, pi, _ int) (float64, error) {
		if pi == 0 {
			return measuredStreamPeakEmu(o)
		}
		return measuredStreamPeakXeon(o)
	})
	if err != nil {
		return nil, err
	}
	peak := [2]float64{peaks[0][0].Mean, peaks[0][1].Mean} // per chase series

	// As in Fig. 7, the Xeon list must exceed the L3 for the paper's
	// utilization contrast to appear; trials are capped for the same
	// cost reason.
	emuElems, xeonElems := 16384, 1<<21
	trials := min(o.Trials, 2)
	if o.Quick {
		emuElems, xeonElems = 8192, 1<<16
	}
	blocks := chaseBlocks(o.Quick)
	stats, err := sweep{series: 2, points: len(blocks), trials: trials}.run(o,
		func(o Options, si, pi, trial int) (float64, error) {
			if math.IsNaN(peak[si]) {
				return math.NaN(), nil // never simulate a cell a failed peak voids
			}
			if si == 0 {
				res, err := kernels.PointerChase(machine.HardwareChick(), kernels.ChaseConfig{
					Elements: emuElems, BlockSize: blocks[pi], Mode: workload.FullBlockShuffle,
					Seed: uint64(trial)*31 + 7, Threads: 512, Nodelets: 8,
				}, o.KernelOptions()...)
				if err != nil {
					return 0, err
				}
				return res.BytesPerSec() / peak[0], nil
			}
			res, err := cpukernels.PointerChase(xeon.SandyBridgeXeon(), cpukernels.ChaseConfig{
				Elements: xeonElems, BlockSize: blocks[pi], Mode: workload.FullBlockShuffle,
				Seed: uint64(trial)*37 + 5, Threads: 32,
			}, o.xeonOptions()...)
			if err != nil {
				return 0, err
			}
			return res.BytesPerSec() / peak[1], nil
		})
	if err != nil {
		return nil, err
	}
	fig := &metrics.Figure{
		ID:     "fig8",
		Title:  "Bandwidth utilization of pointer chasing (fraction of measured STREAM peak)",
		XLabel: "block size (elements)",
		YLabel: "fraction of peak",
		Series: assemble([]string{"emu_chick_512t", "sandy_bridge_32t"}, xsOf(blocks), stats),
	}
	return []*metrics.Figure{fig}, nil
}

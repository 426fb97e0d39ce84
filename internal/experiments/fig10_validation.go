package experiments

import (
	"emuchick/internal/cilk"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "fig10",
		Title: "Emu hardware vs vendor-simulator validation (STREAM, pointer chase, ping-pong)",
		Paper: "STREAM matches between hardware and the matched simulator; " +
			"pointer chasing matches in shape but not magnitude because the " +
			"simulated migration engine does 16 M migrations/s where hardware " +
			"does 9 M/s (exposed by ping-pong).",
		Runner: runFig10,
	})
	register(&Experiment{
		ID:    "migration-anchors",
		Title: "Migration-engine scalars from the ping-pong microbenchmark",
		Paper: "Hardware: ~9 M migrations/s; simulator: ~16 M/s; single-thread " +
			"migration latency approximately 1-2 us.",
		Runner: runMigrationAnchors,
	})
}

// fig10Platforms pairs the two validation configurations.
var fig10Platforms = []struct {
	label string
	cfg   func() machine.Config
}{
	{"hardware", machine.HardwareChick},
	{"simulator", machine.SimMatched},
}

func fig10PlatformNames() []string {
	names := make([]string, len(fig10Platforms))
	for i, p := range fig10Platforms {
		names[i] = p.label
	}
	return names
}

func runFig10(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	elems, chaseElems := 512, 65536
	threads := []int{8, 32, 64, 128, 256, 512}
	trials := min(o.Trials, 3)
	if o.Quick {
		elems, chaseElems = 96, 8192
		threads = []int{64, 256}
		trials = 2
	}

	streamStats, err := sweep{series: len(fig10Platforms), points: len(threads)}.run(o,
		func(o Options, si, pi, _ int) (float64, error) {
			res, err := kernels.StreamAdd(fig10Platforms[si].cfg(), kernels.StreamConfig{
				ElemsPerNodelet: elems, Nodelets: 8, Threads: threads[pi], Strategy: cilk.SerialRemoteSpawn,
			}, o.KernelOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	stream := &metrics.Figure{
		ID:     "fig10-stream",
		Title:  "STREAM: hardware vs simulator (8 nodelets)",
		XLabel: "threads",
		YLabel: "MB/s",
		Series: assemble(fig10PlatformNames(), xsOf(threads), streamStats),
	}

	blocks := chaseBlocks(o.Quick)
	chaseStats, err := sweep{series: len(fig10Platforms), points: len(blocks), trials: trials}.run(o,
		func(o Options, si, pi, trial int) (float64, error) {
			res, err := kernels.PointerChase(fig10Platforms[si].cfg(), kernels.ChaseConfig{
				Elements: chaseElems, BlockSize: blocks[pi], Mode: workload.FullBlockShuffle,
				Seed: uint64(trial)*53 + 3, Threads: 512, Nodelets: 8,
			}, o.KernelOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	chase := &metrics.Figure{
		ID:     "fig10-chase",
		Title:  "Pointer chasing: hardware vs simulator (512 threads, full_block_shuffle)",
		XLabel: "block size (elements)",
		YLabel: "MB/s",
		Series: assemble(fig10PlatformNames(), xsOf(blocks), chaseStats),
	}

	ppThreads := []int{1, 2, 4, 8, 16, 32, 64}
	iters := 300
	if o.Quick {
		ppThreads = []int{1, 16, 64}
		iters = 100
	}
	ppStats, err := sweep{series: len(fig10Platforms), points: len(ppThreads)}.run(o,
		func(o Options, si, pi, _ int) (float64, error) {
			res, err := kernels.PingPong(fig10Platforms[si].cfg(), kernels.PingPongConfig{
				Threads: ppThreads[pi], Iterations: iters, NodeletA: 0, NodeletB: 1,
			}, o.KernelOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MigrationsPerSec / 1e6, nil
		})
	if err != nil {
		return nil, err
	}
	pp := &metrics.Figure{
		ID:     "fig10-pingpong",
		Title:  "Ping-pong migration rate: hardware vs simulator",
		XLabel: "threads",
		YLabel: "migrations/s (millions)",
		Series: assemble(fig10PlatformNames(), xsOf(ppThreads), ppStats),
	}
	return []*metrics.Figure{stream, chase, pp}, nil
}

func runMigrationAnchors(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	iters := 500
	if o.Quick {
		iters = 100
	}
	fig := &metrics.Figure{
		ID:     "migration-anchors",
		Title:  "Migration scalars (ping-pong)",
		XLabel: "anchor",
		YLabel: "value",
		XTicks: map[float64]string{
			0: "hw migrations/s (M)",
			1: "sim migrations/s (M)",
			2: "hw 1-thread latency (us)",
		},
	}
	// The three anchor measurements are the points of a one-series sweep.
	anchors := []struct {
		cfg     machine.Config
		threads int
		value   func(kernels.PingPongResult) float64
	}{
		{machine.HardwareChick(), 64, func(r kernels.PingPongResult) float64 { return r.MigrationsPerSec / 1e6 }},
		{machine.SimMatched(), 64, func(r kernels.PingPongResult) float64 { return r.MigrationsPerSec / 1e6 }},
		{machine.HardwareChick(), 1, func(r kernels.PingPongResult) float64 { return r.MeanLatency.Seconds() * 1e6 }},
	}
	stats, err := sweep{series: 1, points: len(anchors)}.run(o, func(o Options, _, pi, _ int) (float64, error) {
		res, err := kernels.PingPong(anchors[pi].cfg, kernels.PingPongConfig{
			Threads: anchors[pi].threads, Iterations: iters, NodeletA: 0, NodeletB: 1,
		}, o.KernelOptions()...)
		if err != nil {
			return 0, err
		}
		return anchors[pi].value(res), nil
	})
	if err != nil {
		return nil, err
	}
	measured := &metrics.Series{Name: "measured"}
	paperS := &metrics.Series{Name: "paper"}
	for i, st := range stats[0] {
		measured.Add(float64(i), st)
	}
	paperS.Add(0, single(9))
	paperS.Add(1, single(16))
	paperS.Add(2, single(1.5)) // "approximately 1-2 us"
	fig.Series = []*metrics.Series{measured, paperS}
	return []*metrics.Figure{fig}, nil
}

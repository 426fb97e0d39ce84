package experiments

import (
	"strconv"

	"emuchick/internal/cilk"
	"emuchick/internal/cpukernels"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// Ablations isolate the design choices DESIGN.md section 6 calls out:
// each sweeps exactly one knob of the model or of the programming strategy
// and shows its effect on a paper-relevant measurement.

func init() {
	register(&Experiment{
		ID:    "ablation-migration-rate",
		Title: "Block-1 pointer chasing vs migration-engine rate",
		Paper: "Implied by section IV-D: the 9 vs 16 M migrations/s engine " +
			"rate is what separates hardware from simulator on " +
			"migration-bound kernels; sweeping the rate isolates it.",
		Runner: runAblationMigrationRate,
	})
	register(&Experiment{
		ID:    "ablation-spawn-locality",
		Title: "STREAM bandwidth per spawn strategy at fixed thread count",
		Paper: "Fig. 5 distilled: remote spawning is what saturates " +
			"multi-nodelet bandwidth.",
		Runner: runAblationSpawnLocality,
	})
	register(&Experiment{
		ID:    "ablation-grain",
		Title: "SpMV bandwidth vs grain size on Emu (2D) and Haswell (cilk_spawn)",
		Paper: "Section IV-C: 16 elements per spawn is best on the Emu; " +
			"16384 on the CPU.",
		Runner: runAblationGrain,
	})
	register(&Experiment{
		ID:    "ablation-replication",
		Title: "SpMV 2D with replicated vs striped input vector",
		Paper: "Section V-A recommendation #2: replicate commonly used " +
			"inputs like x; striping x costs a migration per gather.",
		Runner: runAblationReplication,
	})
	register(&Experiment{
		ID:    "ablation-migration-latency",
		Title: "Block-1 pointer chasing vs per-migration latency",
		Paper: "Complementary to the rate ablation: with enough threads the " +
			"dip is set by engine throughput, not by per-migration latency.",
		Runner: runAblationMigrationLatency,
	})
}

func runAblationMigrationRate(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	elements, threads := 16384, 512
	rates := []float64{4.5e6, 9e6, 16e6, 24e6, 32e6}
	trials := min(o.Trials, 3)
	if o.Quick {
		elements = 4096
		rates = []float64{9e6, 16e6}
		trials = 2
	}
	stats, err := sweep{series: 1, points: len(rates), trials: trials}.run(o,
		func(o Options, _, pi, trial int) (float64, error) {
			cfg := machine.HardwareChick()
			cfg.MigrationsPerSec = rates[pi]
			res, err := kernels.PointerChase(cfg, kernels.ChaseConfig{
				Elements: elements, BlockSize: 1, Mode: workload.FullBlockShuffle,
				Seed: uint64(trial)*17 + 3, Threads: threads, Nodelets: 8,
			}, o.KernelOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(rates))
	for i, rate := range rates {
		xs[i] = rate / 1e6
	}
	fig := &metrics.Figure{
		ID:     "ablation-migration-rate",
		Title:  "Pointer chasing, block 1, vs migration-engine rate",
		XLabel: "engine rate (M migrations/s)",
		YLabel: "MB/s",
		Series: assemble([]string{"block1_512t"}, xs, stats),
	}
	return []*metrics.Figure{fig}, nil
}

func runAblationSpawnLocality(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	elems, threads := 512, 256
	if o.Quick {
		elems = 128
	}
	fig := &metrics.Figure{
		ID:     "ablation-spawn-locality",
		Title:  "STREAM, 8 nodelets, 256 threads, per spawn strategy",
		XLabel: "strategy (0=serial 1=recursive 2=serial_remote 3=recursive_remote)",
		YLabel: "MB/s",
		XTicks: map[float64]string{},
	}
	stats, err := sweep{series: 1, points: len(cilk.Strategies)}.run(o,
		func(o Options, _, pi, _ int) (float64, error) {
			res, err := kernels.StreamAdd(machine.HardwareChick(), kernels.StreamConfig{
				ElemsPerNodelet: elems, Nodelets: 8, Threads: threads, Strategy: cilk.Strategies[pi],
			}, o.KernelOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(cilk.Strategies))
	for i, strat := range cilk.Strategies {
		xs[i] = float64(i)
		fig.XTicks[float64(i)] = strat.String()
	}
	fig.Series = assemble([]string{"stream_256t"}, xs, stats)
	return []*metrics.Figure{fig}, nil
}

func runAblationGrain(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	emuN, cpuN := 50, 320
	grains := []int{4, 16, 64, 256, 1024, 4096, 16384}
	if o.Quick {
		emuN, cpuN = 16, 64
		grains = []int{16, 1024}
	}
	stats, err := sweep{series: 2, points: len(grains)}.run(o,
		func(o Options, si, pi, _ int) (float64, error) {
			if si == 0 {
				res, err := kernels.SpMV(machine.HardwareChick(), kernels.SpMVConfig{
					GridN: emuN, Layout: kernels.SpMV2D, GrainNNZ: grains[pi],
				}, o.KernelOptions()...)
				if err != nil {
					return 0, err
				}
				return res.MBps(), nil
			}
			res, err := cpukernels.SpMV(xeon.HaswellXeon(), cpukernels.SpMVConfig{
				GridN: cpuN, Variant: cpukernels.SpMVCilkSpawn, Threads: 56, GrainNNZ: grains[pi],
			}, o.xeonOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	names := []string{
		"emu_2d_n" + strconv.Itoa(emuN),
		"haswell_cilk_spawn_n" + strconv.Itoa(cpuN),
	}
	fig := &metrics.Figure{
		ID:     "ablation-grain",
		Title:  "SpMV effective bandwidth vs elements per spawn",
		XLabel: "grain (elements per spawn)",
		YLabel: "MB/s",
		Series: assemble(names, xsOf(grains), stats),
	}
	return []*metrics.Figure{fig}, nil
}

func runAblationReplication(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	sizes := []int{16, 32, 50, 64}
	if o.Quick {
		sizes = []int{12, 20}
	}
	stats, err := sweep{series: 2, points: len(sizes)}.run(o,
		func(o Options, si, pi, _ int) (float64, error) {
			res, err := kernels.SpMV(machine.HardwareChick(), kernels.SpMVConfig{
				GridN: sizes[pi], Layout: kernels.SpMV2D, GrainNNZ: 16, StripeX: si == 1,
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
		ID:     "ablation-replication",
		Title:  "SpMV 2D: replicated vs striped input vector",
		XLabel: "Laplacian size n",
		YLabel: "MB/s",
		Series: assemble([]string{"x_replicated", "x_striped"}, xsOf(sizes), stats),
	}
	return []*metrics.Figure{fig}, nil
}

func runAblationMigrationLatency(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	elements, threads := 16384, 512
	latenciesNs := []int64{400, 800, 1500, 3000, 6000}
	trials := min(o.Trials, 3)
	if o.Quick {
		elements = 4096
		latenciesNs = []int64{800, 3000}
		trials = 2
	}
	stats, err := sweep{series: 1, points: len(latenciesNs), trials: trials}.run(o,
		func(o Options, _, pi, trial int) (float64, error) {
			cfg := machine.HardwareChick()
			cfg.MigrationLatency = machineNs(latenciesNs[pi])
			res, err := kernels.PointerChase(cfg, kernels.ChaseConfig{
				Elements: elements, BlockSize: 1, Mode: workload.FullBlockShuffle,
				Seed: uint64(trial)*23 + 9, Threads: threads, Nodelets: 8,
			}, o.KernelOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(latenciesNs))
	for i, ns := range latenciesNs {
		xs[i] = float64(ns)
	}
	fig := &metrics.Figure{
		ID:     "ablation-migration-latency",
		Title:  "Pointer chasing, block 1, vs per-migration latency",
		XLabel: "migration latency (ns)",
		YLabel: "MB/s",
		Series: assemble([]string{"block1_512t"}, xs, stats),
	}
	return []*metrics.Figure{fig}, nil
}

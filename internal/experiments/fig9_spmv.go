package experiments

import (
	"emuchick/internal/cpukernels"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/xeon"
)

func init() {
	register(&Experiment{
		ID:    "fig9a",
		Title: "SpMV effective bandwidth on the Emu Chick for three data layouts",
		Paper: "local tops out near ~50 MB/s (no parallelism), 1D near " +
			"~100 MB/s (a migration per element), and 2D scales with n to " +
			"~250 MB/s at n=100; grain 16 works best.",
		Runner: runFig9a,
	})
	register(&Experiment{
		ID:    "fig9b",
		Title: "SpMV effective bandwidth on Haswell Xeon (MKL, cilk_for, cilk_spawn)",
		Paper: "MKL and cilk_for scale well with matrix size into the GB/s " +
			"range; cilk_spawn depends strongly on grain size, best at 16384.",
		Runner: runFig9b,
	})
}

func fig9aSizes(quick bool) []int {
	if quick {
		return []int{8, 16, 24}
	}
	return []int{16, 25, 32, 50, 64, 100}
}

func runFig9a(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	sizes := fig9aSizes(o.Quick)
	layouts := kernels.SpMVLayouts
	stats, err := sweep{series: len(layouts), points: len(sizes)}.run(o,
		func(o Options, si, pi, _ int) (float64, error) {
			res, err := kernels.SpMV(machine.HardwareChick(), kernels.SpMVConfig{
				GridN: sizes[pi], Layout: layouts[si], GrainNNZ: 16,
			}, o.KernelOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(layouts))
	for i, layout := range layouts {
		names[i] = layout.String()
	}
	fig := &metrics.Figure{
		ID:     "fig9a",
		Title:  "SpMV (Emu Chick, 8 nodelets, grain 16)",
		XLabel: "Laplacian size n",
		YLabel: "MB/s",
		Series: assemble(names, xsOf(sizes), stats),
	}
	return []*metrics.Figure{fig}, nil
}

func fig9bSizes(quick bool) []int {
	if quick {
		return []int{16, 32}
	}
	return []int{16, 32, 64, 100, 128, 192}
}

func runFig9b(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	type variant struct {
		name    string
		variant cpukernels.SpMVVariant
		grain   int
	}
	variants := []variant{
		{"mkl", cpukernels.SpMVMKL, 0},
		{"cilk_for", cpukernels.SpMVCilkFor, 0},
		{"cilk_spawn_g16384", cpukernels.SpMVCilkSpawn, 16384},
		{"cilk_spawn_g16", cpukernels.SpMVCilkSpawn, 16},
	}
	if o.Quick {
		variants = variants[:3]
	}
	sizes := fig9bSizes(o.Quick)
	stats, err := sweep{series: len(variants), points: len(sizes)}.run(o,
		func(o Options, si, pi, _ int) (float64, error) {
			res, err := cpukernels.SpMV(xeon.HaswellXeon(), cpukernels.SpMVConfig{
				GridN: sizes[pi], Variant: variants[si].variant, Threads: 56, GrainNNZ: variants[si].grain,
			}, o.xeonOptions()...)
			if err != nil {
				return 0, err
			}
			return res.MBps(), nil
		})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	fig := &metrics.Figure{
		ID:     "fig9b",
		Title:  "SpMV (Haswell Xeon E7-4850 v3, 56 threads)",
		XLabel: "Laplacian size n",
		YLabel: "MB/s",
		Series: assemble(names, xsOf(sizes), stats),
	}
	return []*metrics.Figure{fig}, nil
}

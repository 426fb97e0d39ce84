package experiments

import (
	"emuchick/internal/cilk"
	"emuchick/internal/cpukernels"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/xeon"
)

func init() {
	register(&Experiment{
		ID:    "stream-anchors",
		Title: "STREAM scalar anchors from section IV-A",
		Paper: "Sandy Bridge reaches close to its nominal 51.2 GB/s; the Emu " +
			"Chick peaks at ~1.2 GB/s on one node; an initial (unstable) " +
			"8-node test reached 6.5 GB/s.",
		Runner: runStreamAnchors,
	})
}

func runStreamAnchors(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	emuElems, xeonElems := 1024, 1<<18
	if o.Quick {
		emuElems, xeonElems = 256, 1<<16
	}
	fig := &metrics.Figure{
		ID:     "stream-anchors",
		Title:  "STREAM scalar anchors (GB/s)",
		XLabel: "anchor",
		YLabel: "GB/s",
		XTicks: map[float64]string{
			0: "sandy bridge STREAM",
			1: "emu chick 1 node",
			2: "emu chick 8 nodes",
		},
	}
	// The three anchors are the points of a one-series sweep.
	anchors := []func(Options) (float64, error){
		func(o Options) (float64, error) {
			r, err := cpukernels.StreamAdd(xeon.SandyBridgeXeon(), cpukernels.StreamConfig{
				Elements: xeonElems, Threads: 32,
			}, o.xeonOptions()...)
			return r.GBps(), err
		},
		func(o Options) (float64, error) {
			r, err := kernels.StreamAdd(machine.HardwareChick(), kernels.StreamConfig{
				ElemsPerNodelet: emuElems, Nodelets: 8, Threads: 512, Strategy: cilk.RecursiveRemoteSpawn,
			}, o.KernelOptions()...)
			return r.GBps(), err
		},
		func(o Options) (float64, error) {
			r, err := kernels.StreamAdd(machine.HardwareChickNodes(8), kernels.StreamConfig{
				ElemsPerNodelet: emuElems, Nodelets: 64, Threads: 4096, Strategy: cilk.RecursiveRemoteSpawn,
			}, o.KernelOptions()...)
			return r.GBps(), err
		},
	}
	stats, err := sweep{series: 1, points: len(anchors)}.run(o, func(o Options, _, pi, _ int) (float64, error) {
		return anchors[pi](o)
	})
	if err != nil {
		return nil, err
	}
	measured := &metrics.Series{Name: "measured"}
	paperS := &metrics.Series{Name: "paper"}
	for i, st := range stats[0] {
		measured.Add(float64(i), st)
	}
	paperS.Add(0, single(51.2)) // nominal; the paper measures "close to" it
	paperS.Add(1, single(1.2))
	paperS.Add(2, single(6.5)) // unstable initial test
	fig.Series = []*metrics.Series{measured, paperS}
	return []*metrics.Figure{fig}, nil
}

package experiments

import (
	"emuchick/internal/cilk"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
)

func init() {
	register(&Experiment{
		ID:    "scaling-nodes",
		Title: "STREAM bandwidth scaling across node cards",
		Paper: "Section IV-A: one node sustains ~1.2 GB/s; the single " +
			"successful 8-node run reached 6.5 GB/s (sub-linear, on " +
			"unstable firmware); future systems target up to 160 GB/s.",
		Runner: runScalingNodes,
	})
}

func runScalingNodes(o Options) ([]*metrics.Figure, error) {
	o = o.withDefaults()
	elems := 512
	threadsPerNodelet := 64
	if o.Quick {
		elems = 128
		threadsPerNodelet = 32
	}
	nodeCounts := []int{1, 2, 4, 8}
	stats, err := sweep{series: 1, points: len(nodeCounts)}.run(o, func(o Options, _, pi, _ int) (float64, error) {
		cfg := machine.HardwareChickNodes(nodeCounts[pi])
		nodelets := cfg.TotalNodelets()
		res, err := kernels.StreamAdd(cfg, kernels.StreamConfig{
			ElemsPerNodelet: elems, Nodelets: nodelets,
			Threads: threadsPerNodelet * nodelets, Strategy: cilk.RecursiveRemoteSpawn,
		}, o.KernelOptions()...)
		return res.GBps(), err
	})
	if err != nil {
		return nil, err
	}
	fig := &metrics.Figure{
		ID:     "scaling-nodes",
		Title:  "STREAM (Emu Chick prototype, 1-8 node cards)",
		XLabel: "nodes",
		YLabel: "GB/s",
	}
	measured := &metrics.Series{Name: "measured"}
	ideal := &metrics.Series{Name: "linear_from_1_node"}
	oneNode := stats[0][0].Mean
	for i, nodes := range nodeCounts {
		measured.Add(float64(nodes), stats[0][i])
		ideal.Add(float64(nodes), single(oneNode*float64(nodes)))
	}
	fig.Series = []*metrics.Series{measured, ideal}
	return []*metrics.Figure{fig}, nil
}

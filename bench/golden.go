package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"emuchick/internal/cpukernels"
	"emuchick/internal/experiments"
	"emuchick/internal/metrics"
	"emuchick/internal/report"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// goldenMain regenerates testdata/golden.json (run it from bench/): it runs every op whose
// output is golden-checked — each sweep at seed 1 with its warm-up, and the
// probe cells and quick-scale figures — and records the digests. It also
// regenerates fig7 at one trial and requires every Xeon cell to reproduce
// its fig7 point, so the cells are tied to the figure they are taken from.
// Run it from bench/ only when the model changed on purpose.
func goldenMain(args []string) int {
	if len(args) != 0 {
		fmt.Fprintln(os.Stderr, "usage: emuperf golden (from bench/)")
		return 2
	}
	if err := writeGolden("testdata/golden.json"); err != nil {
		fmt.Fprintln(os.Stderr, "emuperf golden:", err)
		return 1
	}
	return 0
}

func writeGolden(path string) error {
	collect := newChecker(nil)
	var stages []stage
	for _, w := range workloads {
		if w.name == "serve-mix" {
			continue
		}
		p, err := newSweepPlan(w.name, 1, full)
		if err != nil {
			return err
		}
		stages = append(append(stages, p.warmup...), p.stages...)
	}
	var probes []op
	for _, id := range probeFigures {
		probes = append(probes, figureOpSerial(id, nil))
	}
	for _, layout := range spmvLayouts {
		probes = append(probes, kernelOp(probeSpMV(layout, full), true))
	}
	probes = append(probes, kernelOp(probeGUPS(full), true))
	for _, b := range []int{1, 512} {
		probes = append(probes, xeonOp(probeChase(b, full), true))
	}
	stages = append(stages, stage{ops: probes, batch: true})
	runStages(stages, collect, nil, 0)
	if _, failed := collect.counts(); failed > 0 {
		return fmt.Errorf("%d ops failed: %v", failed, collect.errs)
	}
	fig7, err := crossCheckFig7()
	if err != nil {
		return err
	}
	collect.seen[figureKey(experiments.FullScale, 1, "fig7")] = fig7
	b, err := json.MarshalIndent(goldenFile{
		Note: "SHA-256 digests of the benchmark's outputs; regenerate with `go run . golden` from bench/. " +
			"fig/<scale>/t<trials>/<id> digests the report.FigureJSON bytes (emubench -outdir writes the same bytes).",
		Digests: collect.seen,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// crossCheckFig7 regenerates fig7 at full scale with one trial, so each
// point's mean is its trial-0 cell, and checks that each Xeon cell the
// benchmark runs reproduces the figure's point for its thread count and
// block size. It returns the figure's digest.
func crossCheckFig7() (string, error) {
	figs, err := runFigures("fig7", experiments.FullScale, 1)
	if err != nil {
		return "", err
	}
	f, err := report.ParseFigureJSON(bytes.NewReader(figs[0]))
	if err != nil {
		return "", err
	}
	cells := append(append([]cpukernels.ChaseConfig(nil), xeonCells...), probeChase(1, full), probeChase(512, full))
	for _, c := range cells {
		c.Elements, c.Mode, c.Seed = fig7Elements, workload.FullBlockShuffle, fig7Seed
		res, _, err := cpukernels.PointerChaseWithStats(xeon.SandyBridgeXeon(), c)
		if err != nil {
			return "", err
		}
		want, ok := fig7Point(f, c.Threads, c.BlockSize)
		if !ok {
			return "", fmt.Errorf("fig7 has no point threads=%d block=%d", c.Threads, c.BlockSize)
		}
		if got := res.MBps(); got != want {
			return "", fmt.Errorf("xeon cell threads=%d block=%d: %v MB/s, fig7 reads %v", c.Threads, c.BlockSize, got, want)
		}
	}
	return digest(figs[0]), nil
}

// fig7Point is the mean of fig7's point for one thread count and block size.
func fig7Point(f *metrics.Figure, threads, block int) (float64, bool) {
	for _, s := range f.Series {
		if s.Name != fmt.Sprintf("threads=%d", threads) {
			continue
		}
		for _, p := range s.Points {
			if p.X == float64(block) {
				return p.Stats.Mean, true
			}
		}
	}
	return 0, false
}

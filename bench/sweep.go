package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"emuchick/internal/cpukernels"
	"emuchick/internal/experiments"
	"emuchick/internal/jobspec"
	"emuchick/internal/kernels"
	"emuchick/internal/metrics"
	"emuchick/internal/report"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// cellWorkers is the parallelism of every sweep: the figure runner's worker
// count and the number of goroutines a batch of cells is spread over. It
// matches the two cores the benchmark is sized for.
const cellWorkers = 2

// op is one unit of a sweep's fixed work — one figure regeneration or one
// simulation cell — whose outputs the checker verifies.
type op struct {
	cat, name string // layer and label of the op's span
	run       func() ([]output, error)
}

// stage is a step of a pass: a single op (a figure, parallel inside), or a
// batch of cells spread over cellWorkers goroutines.
type stage struct {
	ops   []op
	batch bool
}

// sweepPlan is the fixed work of a sweep workload for one seed and size.
type sweepPlan struct {
	stages []stage // the timed pass, in run order
	warmup []stage // run by every set-up
	specs  []jobspec.Spec
	// recheck is the seeded cell re-run after the timed window, which must
	// reproduce its in-window digest; nil when every cell is golden-checked.
	recheck *op
}

// size selects the benchmark's full inputs or the tiny ones the tests use.
type size int

const (
	full size = iota
	tiny
)

var (
	migrateFigures   = []string{"fig4", "fig5", "fig6", "fig10", "fig11", "migration-anchors", "degradation-chase", "scaling-nodes"}
	irregularFigures = []string{"fig9a", "extension-csx", "ablation-replication"}
	xeonFigures      = []string{"fig9b"}
)

// Full-size cell sets. SpMV spans the three layouts (no migration, one per
// element, and the 2D middle ground) over growing grids and both spawn
// grains; the Xeon cells are fig7 cells at fig7's 32 MiB list size, which
// overflows the model's 20 MiB L3.
var (
	spmvGrids   = []int{100, 141}
	spmvLayouts = []string{"1d", "2d", "local"} // by cost: 1d migrates on every element
	spmvGrains  = []int{16, 64}
	gupsCells   = 16
	xeonCells   = []cpukernels.ChaseConfig{ // longest first
		{BlockSize: 4096, Threads: 8}, {BlockSize: 1, Threads: 8}, {BlockSize: 512, Threads: 8},
	}
)

const (
	fig7Elements = 1 << 21
	fig7Seed     = 1 // fig7's trial-0 list seed, so cells reproduce fig7's points
	// timedTrials is the trials per point of every timed figure. A trial
	// repeats the point's cell shape under another seed, so one trial runs
	// the same code paths, and a pass stays short enough for the window to
	// hold several, whose median is steadier than one long pass.
	timedTrials = 1
)

func newSweepPlan(name string, seed uint64, sz size) (*sweepPlan, error) {
	rng := rand.New(rand.NewPCG(seed, 0x656d7570657266))
	p := &sweepPlan{}
	figStages := func(ids []string, scale experiments.Scale, trials int) []stage {
		var out []stage
		for _, id := range ids {
			out = append(out, stage{ops: []op{figureOp(id, scale, trials)}})
			p.specs = append(p.specs, jobspec.Spec{Experiment: id, Scale: scaleName(scale), Trials: trials})
		}
		return out
	}
	scale, trials := experiments.FullScale, timedTrials
	if sz == tiny {
		scale, trials = experiments.QuickScale, 0
	}
	switch name {
	case "emu-migrate":
		p.stages = figStages(migrateFigures, scale, trials)
		p.warmup = quickStages(migrateFigures, sz)
	case "emu-irregular":
		p.stages = figStages(irregularFigures, scale, trials)
		p.warmup = quickStages(irregularFigures, sz)
		grids, grains, updates, gups := spmvGrids, spmvGrains, 65536, gupsCells
		if sz == tiny {
			grids, grains, updates, gups = []int{16}, []int{16}, 1024, 2
		}
		// Cells run longest first, so the two workers finish together.
		var cells []op
		for i := len(grids) - 1; i >= 0; i-- {
			n := grids[i]
			for _, layout := range spmvLayouts {
				for _, g := range grains {
					s := jobspec.Spec{Kernel: "spmv", Params: kernels.Params{GridN: n, Layout: layout, Grain: g}}
					cells = append(cells, kernelOp(s, sz == full))
					p.specs = append(p.specs, s)
				}
			}
		}
		var seeded []op
		for i := 0; i < gups; i++ {
			s := jobspec.Spec{Kernel: "gups", Params: kernels.Params{
				Updates: updates, Threads: 512, Elems: 4096, Seed: 1 + rng.Uint64N(1<<31)}}
			seeded = append(seeded, kernelOp(s, false))
			p.specs = append(p.specs, s)
		}
		recheck := seeded[rng.IntN(len(seeded))]
		p.recheck = &recheck
		p.stages = append(p.stages, stage{ops: append(cells, seeded...), batch: true})
		p.warmup = append(p.warmup, stage{batch: true, ops: []op{
			kernelOp(jobspec.Spec{Kernel: "spmv", Params: kernels.Params{GridN: 24, Layout: "1d", Grain: 16}}, false),
			kernelOp(jobspec.Spec{Kernel: "gups", Params: kernels.Params{Updates: 1024, Threads: 64, Elems: 4096}}, false),
		}})
	case "xeon-cache":
		p.stages = figStages(xeonFigures, scale, trials)
		p.warmup = quickStages(append(append([]string(nil), xeonFigures...), "fig7"), sz)
		elems := fig7Elements
		if sz == tiny {
			elems = 1 << 14
		}
		var cells []op
		for _, c := range xeonCells {
			c.Elements, c.Mode, c.Seed = elems, workload.FullBlockShuffle, fig7Seed
			cells = append(cells, xeonOp(c, sz == full))
		}
		p.stages = append(p.stages, stage{ops: cells, batch: true})
	default:
		return nil, fmt.Errorf("no sweep workload %q", name)
	}
	return p, nil
}

// quickStages are the set-up warm-up: the workload's own figures at quick
// scale, which exercise every lazy initialization the timed figures meet.
// The tiny size warms up with the first figure only.
func quickStages(ids []string, sz size) []stage {
	if sz == tiny {
		ids = ids[:1]
	}
	var out []stage
	for _, id := range ids {
		out = append(out, stage{ops: []op{figureOp(id, experiments.QuickScale, 0)}})
	}
	return out
}

func scaleName(s experiments.Scale) string {
	if s == experiments.QuickScale {
		return jobspec.ScaleQuick
	}
	return jobspec.ScaleFull
}

// figureKey names one figure's golden digest: scale, trials (0 = paper
// default), and figure id.
func figureKey(scale experiments.Scale, trials int, id string) string {
	return fmt.Sprintf("fig/%s/t%d/%s", scaleName(scale), trials, id)
}

// figureOp regenerates one experiment through experiments.ByID(..).Run and
// digests each figure's report.FigureJSON bytes — the bytes emubench -outdir
// writes. Figure digests are always golden-checked.
func figureOp(id string, scale experiments.Scale, trials int) op {
	return op{cat: "experiments", name: id, run: func() ([]output, error) {
		figs, err := runFigures(id, scale, trials)
		if err != nil {
			return nil, err
		}
		return figureOutputs(figs, scale, trials)
	}}
}

func runFigures(id string, scale experiments.Scale, trials int, extra ...experiments.Option) ([][]byte, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	opts := append([]experiments.Option{experiments.WithScale(scale), experiments.WithParallel(cellWorkers)}, extra...)
	if trials > 0 {
		opts = append(opts, experiments.WithTrials(trials))
	}
	figs, err := e.Run(opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return figureBytes(figs)
}

// figureBytes encodes each figure with report.FigureJSON.
func figureBytes(figs []*metrics.Figure) ([][]byte, error) {
	out := make([][]byte, len(figs))
	for i, f := range figs {
		var b bytes.Buffer
		if err := report.FigureJSON(&b, f); err != nil {
			return nil, fmt.Errorf("%s: %w", f.ID, err)
		}
		out[i] = b.Bytes()
	}
	return out, nil
}

func figureOutputs(figs [][]byte, scale experiments.Scale, trials int) ([]output, error) {
	outs := make([]output, len(figs))
	for i, b := range figs {
		var head struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(b, &head); err != nil {
			return nil, err
		}
		outs[i] = output{key: figureKey(scale, trials, head.ID), digest: digest(b), required: true}
	}
	return outs, nil
}

// kernelOp runs one kernel spec through jobspec.RunKernel and digests the
// measurement's JSON.
func kernelOp(s jobspec.Spec, required bool) op {
	return op{cat: "kernels", name: s.Kernel + " " + paramLabel(s.Params), run: func() ([]output, error) {
		m, _, err := jobspec.RunKernel(context.Background(), s, nil)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		return []output{{key: "kernel/" + s.Fingerprint(), digest: digest(b), required: required}}, nil
	}}
}

func paramLabel(p kernels.Params) string {
	if p.Layout != "" {
		return fmt.Sprintf("n=%d %s grain=%d", p.GridN, p.Layout, p.Grain)
	}
	return fmt.Sprintf("updates=%d seed=%d", p.Updates, p.Seed)
}

// xeonKey names one Xeon chase cell's golden digest.
func xeonKey(c cpukernels.ChaseConfig) string {
	return fmt.Sprintf("xeon/n%d/b%d/t%d/s%d", c.Elements, c.BlockSize, c.Threads, c.Seed)
}

// xeonOp runs one pointer-chase cell on the Sandy Bridge model through
// cpukernels.PointerChaseWithStats and digests its times and DRAM traffic.
func xeonOp(c cpukernels.ChaseConfig, required bool) op {
	return op{cat: "xeon", name: fmt.Sprintf("chase b=%d t=%d", c.BlockSize, c.Threads), run: func() ([]output, error) {
		out, _, err := xeonCell(c, required)
		return []output{out}, err
	}}
}

func xeonCell(c cpukernels.ChaseConfig, required bool) (output, cpukernels.ChaseStats, error) {
	res, st, err := cpukernels.PointerChaseWithStats(xeon.SandyBridgeXeon(), c)
	if err != nil {
		return output{}, st, err
	}
	b := fmt.Sprintf("bytes=%d elapsed=%d dram=%d writeback=%d", res.Bytes, int64(res.Elapsed), st.DRAMLineBytes, st.WritebackBytes)
	return output{key: xeonKey(c), digest: digest([]byte(b)), required: required}, st, nil
}

// runStages executes stages in order; every op's outputs go to the checker
// and every op gets a span under parent.
func runStages(stages []stage, chk *checker, tr *tracer, parent int) {
	for _, st := range stages {
		if !st.batch {
			for _, o := range st.ops {
				runOp(o, chk, tr, parent, trackMain)
			}
			continue
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < cellWorkers; w++ {
			wg.Add(1)
			go func(track int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(st.ops) {
						return
					}
					runOp(st.ops[i], chk, tr, parent, track)
				}
			}(trackWorker + w)
		}
		wg.Wait()
	}
}

var opSeq atomic.Int64

func runOp(o op, chk *checker, tr *tracer, parent, track int) {
	sp := tr.begin(o.cat, o.name, parent, int(opSeq.Add(1)), track)
	outs, err := o.run()
	sp.end()
	chk.record(outs, err)
}

// sweepRunner runs a sweep workload: every set-up warms up, every pass runs
// the plan's stages.
type sweepRunner struct {
	plan *sweepPlan
	chk  *checker
}

func (d *sweepRunner) setup(tr *tracer, parent int) (pass, error) {
	runStages(d.plan.warmup, d.chk, tr, parent)
	return sweepPass{d}, nil
}

func (d *sweepRunner) specs() []jobspec.Spec { return d.plan.specs }

func (d *sweepRunner) verify(tr *tracer, parent int) {
	if d.plan.recheck != nil {
		runOp(*d.plan.recheck, d.chk, tr, parent, trackMain)
	}
}

func (d *sweepRunner) serverLayers() *serveStats { return nil }

type sweepPass struct{ d *sweepRunner }

func (p sweepPass) run(tr *tracer, parent int) error {
	runStages(p.d.plan.stages, p.d.chk, tr, parent)
	return nil
}

func (p sweepPass) close() {}

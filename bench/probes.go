package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"emuchick/internal/cpukernels"
	"emuchick/internal/experiments"
	"emuchick/internal/jobspec"
	"emuchick/internal/kernels"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
	"emuchick/internal/workload"
)

// The layer probes. A traced run executes every probe, identically on every
// workload, so each per-layer metric is measured on each workload: the
// probes time calls into one layer's public entry points with fixed inputs,
// so a later change to that layer moves its probe whatever the workload.
// Times are medians over probeReps repetitions; counts are exact.

const probeReps = 3

// probeFigures are the 13 figures the three sweeps regenerate; the probe
// times each at quick scale, serially.
var probeFigures = append(append(append(append([]string(nil), migrateFigures...), irregularFigures...), xeonFigures...), "fig7")

// emuFigures are the probe figures that simulate the Emu machine (the rest
// model the Xeon); the counting-observer pass runs these.
var emuFigures = append(append([]string(nil), migrateFigures...), irregularFigures...)

// probeSpMV and probeGUPS are the kernels probe's cells: emu-irregular cells
// at its smallest grid, and one GUPS cell at the default seed.
func probeSpMV(layout string, sz size) jobspec.Spec {
	n := spmvGrids[0]
	if sz == tiny {
		n = 16
	}
	return jobspec.Spec{Kernel: "spmv", Params: kernels.Params{GridN: n, Layout: layout, Grain: spmvGrains[0]}}
}

func probeGUPS(sz size) jobspec.Spec {
	updates := 65536
	if sz == tiny {
		updates = 1024
	}
	return jobspec.Spec{Kernel: "gups", Params: kernels.Params{Updates: updates, Threads: 512, Elems: 4096, Seed: 1}}
}

// probeChase is one fig7 cell at one thread, as the Xeon probe runs it.
func probeChase(block int, sz size) cpukernels.ChaseConfig {
	n := fig7Elements
	if sz == tiny {
		n = 1 << 14
	}
	return cpukernels.ChaseConfig{Elements: n, BlockSize: block, Mode: workload.FullBlockShuffle, Seed: fig7Seed, Threads: 1}
}

// prober runs the probes, recording a span for each and verifying every
// output the probes produce.
type prober struct {
	sz     size
	chk    *checker
	tr     *tracer
	parent int
	out    map[string]float64
}

// timed runs fn probeReps times under a span and returns the median wall
// time in seconds.
func (p *prober) timed(name string, fn func() error) (float64, error) {
	var ts []float64
	for r := 0; r < probeReps; r++ {
		sp := p.tr.begin("probe", name, p.parent, 0, trackMain)
		t0 := time.Now()
		err := fn()
		ts = append(ts, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(ts), nil
}

// checked runs an op and feeds its outputs to the checker, so a probe that
// produced wrong bytes fails the run instead of reporting a time.
func (p *prober) checked(o op) func() error {
	return func() error {
		outs, err := o.run()
		if !p.chk.record(outs, err) {
			return fmt.Errorf("%s: output check failed", o.name)
		}
		return nil
	}
}

// sim: closure-event dispatch with 64K events pending, and continuation
// procs spawned, slept once, and exited.
func (p *prober) sim() error {
	n := 1 << 16
	if p.sz == tiny {
		n = 1 << 10
	}
	ev, err := p.timed("sim.events", func() error {
		e := sim.NewEngine()
		fired := 0
		fn := func() { fired++ }
		for i := 0; i < n; i++ {
			e.Schedule(sim.Time(i*7919%n)*sim.Nanosecond, fn)
		}
		if err := e.Run(); err != nil {
			return err
		}
		if fired != n {
			return fmt.Errorf("fired %d of %d events", fired, n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var bytes []float64
	proc, err := p.timed("sim.cont_procs", func() error {
		steppers := make([]sleeper, n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		e := sim.NewEngine()
		for i := range steppers {
			e.SpawnContAt(sim.Time(i*7919%n)*sim.Nanosecond, "probe", &steppers[i])
		}
		if err := e.Run(); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
		for i := range steppers {
			if steppers[i].steps < 1 {
				return fmt.Errorf("proc %d never ran", i)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["sim.event_ns"] = ev * 1e9 / float64(n)
	p.out["sim.cont_proc_ns"] = proc * 1e9 / float64(n)
	p.out["sim.cont_proc_bytes"] = median(bytes)
	return nil
}

// sleeper is a continuation proc body that sleeps one nanosecond and exits.
type sleeper struct{ steps int }

func (s *sleeper) StepProc(p *sim.Proc) {
	s.steps++
	if s.steps == 1 && p.SleepUntil(p.Now()+sim.Nanosecond) {
		return
	}
	p.Exit()
}

// experiments and machine: every figure at quick scale, serially; then the
// Emu figures again with a counting observer attached, whose figure bytes
// must not change. machine.ns_per_event is the untraced host time of the
// Emu figures per observed machine event.
func (p *prober) figures() error {
	emuSeconds := 0.0
	for _, id := range probeFigures {
		s, err := p.timed("experiments."+id, p.checked(figureOpSerial(id, nil)))
		if err != nil {
			return err
		}
		p.out["experiments."+id+"_s"] = s
		if slices.Contains(emuFigures, id) {
			emuSeconds += s
		}
	}
	var c countingObserver
	for _, id := range emuFigures {
		sp := p.tr.begin("probe", "machine.count "+id, p.parent, 0, trackMain)
		err := p.checked(figureOpSerial(id, &c))()
		sp.end()
		if err != nil {
			return err
		}
	}
	p.out["machine.events"] = float64(c.events)
	p.out["machine.migrations"] = float64(c.migrations)
	p.out["machine.spawns"] = float64(c.spawns)
	p.out["machine.loads"] = float64(c.loads)
	p.out["machine.stores"] = float64(c.stores)
	p.out["machine.remote_stores"] = float64(c.remoteStores)
	p.out["machine.atomics"] = float64(c.atomics)
	p.out["machine.ns_per_event"] = emuSeconds * 1e9 / float64(c.events)
	return nil
}

// figureOpSerial is figureOp at quick scale with one worker, optionally
// streaming to an observer (which forces one worker anyway).
func figureOpSerial(id string, obs trace.Observer) op {
	return op{cat: "experiments", name: id, run: func() ([]output, error) {
		extra := []experiments.Option{experiments.WithParallel(1)}
		if obs != nil {
			extra = append(extra, experiments.WithObserver(obs))
		}
		figs, err := runFigures(id, experiments.QuickScale, 0, extra...)
		if err != nil {
			return nil, err
		}
		return figureOutputs(figs, experiments.QuickScale, 0)
	}}
}

// countingObserver tallies machine events by kind. Attached through
// experiments.WithObserver it sees every simulated operation.
type countingObserver struct {
	events, migrations, spawns, loads, stores, remoteStores, atomics uint64
}

func (c *countingObserver) Event(e trace.Event) {
	c.events++
	switch e.Kind {
	case trace.KindMigrate:
		c.migrations++
	case trace.KindSpawn:
		c.spawns++
	case trace.KindLoad:
		c.loads++
	case trace.KindStore:
		c.stores++
	case trace.KindRemoteStore:
		c.remoteStores++
	case trace.KindAtomic:
		c.atomics++
	}
}

func (c *countingObserver) Sample(trace.Sample) {}

// kernels: one SpMV cell per layout and one GUPS cell via jobspec.RunKernel.
func (p *prober) kernels() error {
	required := p.sz == full
	for _, layout := range spmvLayouts {
		s, err := p.timed("kernels.spmv_"+layout, p.checked(kernelOp(probeSpMV(layout, p.sz), required)))
		if err != nil {
			return err
		}
		p.out["kernels.spmv_"+layout+"_ms"] = s * 1e3
	}
	s, err := p.timed("kernels.gups", p.checked(kernelOp(probeGUPS(p.sz), required)))
	if err != nil {
		return err
	}
	p.out["kernels.gups_ms"] = s * 1e3
	return nil
}

// xeon: two fig7 cells at one thread — every line a miss (block 1) and
// page-sized blocks (512) — through cpukernels.PointerChaseWithStats.
func (p *prober) xeon() error {
	var perAccess float64
	for _, b := range []int{1, 512} {
		c := probeChase(b, p.sz)
		var dram int64
		s, err := p.timed(fmt.Sprintf("xeon.chase_b%d", b), func() error {
			out, st, err := xeonCell(c, p.sz == full)
			dram = st.DRAMLineBytes
			if !p.chk.record([]output{out}, err) {
				return fmt.Errorf("xeon cell b=%d: output check failed", b)
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.out[fmt.Sprintf("xeon.chase_b%d_s", b)] = s
		p.out[fmt.Sprintf("xeon.dram_mb_b%d", b)] = float64(dram) / 1e6
		perAccess += s * 1e9 / float64(c.Elements) / 2
	}
	p.out["xeon.ns_per_access"] = perAccess
	return nil
}

// jobspec: Canonical + Validate + Fingerprint over the workload's specs.
func (p *prober) jobspec(specs []jobspec.Spec) error {
	if len(specs) == 0 {
		return fmt.Errorf("jobspec probe: workload has no specs")
	}
	var per []float64
	for r := 0; r < 5*probeReps; r++ {
		t0 := time.Now()
		for _, s := range specs {
			_ = s.Canonical()
			if err := s.Validate(); err != nil {
				return fmt.Errorf("jobspec probe: %w", err)
			}
			_ = s.Fingerprint()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(specs)))
	}
	p.out["jobspec.fingerprint_us"] = median(per)
	return nil
}

// server fills the jobserver and storefs metrics. serve-mix reports its own
// traced passes; the sweeps run one traced serve-mix pass as the probe.
func (p *prober) server(st *serveStats, seed uint64, dir string, strict bool) error {
	if st == nil {
		d := newServeRunner(seed, p.sz, p.chk, dir)
		sp := p.tr.begin("probe", "jobserver", p.parent, 0, trackMain)
		ps, err := d.setup(p.tr, sp.ID())
		if err != nil {
			sp.end()
			return err
		}
		err = ps.run(p.tr, sp.ID())
		ps.close()
		sp.end()
		if err != nil {
			return err
		}
		st = d.traced
	}
	return serverMetrics(st, p.out, strict)
}

// serverMetrics derives the jobserver and storefs metrics from traced
// serve-mix passes. Counts are per pass (every pass replays the same
// requests on a fresh server). A request that failed counts as missing
// every latency limit. With strict set, a percentile without ten samples
// beyond it is an error; otherwise (tiny test runs) it reads the maximum.
func serverMetrics(st *serveStats, out map[string]float64, strict bool) error {
	var lat, hit, cold, qwait, runFor, submit, result []float64
	waits := 0
	for _, r := range st.reqs {
		if !r.ok {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(r.total))
		submit = append(submit, ms(r.submit))
		result = append(result, ms(r.result))
		if r.hit {
			hit = append(hit, ms(r.total))
		} else {
			cold = append(cold, ms(r.total))
			waits += r.waits
		}
		if r.started {
			qwait = append(qwait, ms(r.queueWait))
			runFor = append(runFor, ms(r.runFor))
		}
	}
	pct := func(xs []float64, q float64) (float64, error) {
		v, err := percentile(xs, q)
		if err != nil && !strict && len(xs) > 0 {
			return sorted(xs)[len(xs)-1], nil
		}
		return v, err
	}
	passes := float64(st.passes)
	for _, m := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"jobserver.latency_p50_ms", lat, 50}, {"jobserver.latency_p99_ms", lat, 99},
		{"jobserver.queue_wait_ms_p50", qwait, 50}, {"jobserver.queue_wait_ms_p99", qwait, 99},
		{"jobserver.run_ms_p50", runFor, 50},
		{"jobserver.hit_p50_ms", hit, 50},
		{"jobserver.cold_p50_ms", cold, 50}, {"jobserver.cold_p95_ms", cold, 95},
		{"jobserver.http_submit_ms_p50", submit, 50}, {"jobserver.http_result_ms_p50", result, 50},
		{"storefs.sync_ms_p50", st.fs.syncMs, 50}, {"storefs.sync_ms_p99", st.fs.syncMs, 99},
	} {
		v, err := pct(m.xs, m.q)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		out[m.name] = v
	}
	out["jobserver.jobs_per_s"] = float64(len(st.reqs)) / st.wall.Seconds()
	out["jobserver.waits_per_cold_job"] = float64(waits) / float64(max(len(cold), 1))
	out["jobserver.simulated"] = float64(st.simulated) / passes
	out["jobserver.cache_hits"] = float64(st.cacheHits) / passes
	out["jobserver.shed"] = float64(st.shed) / passes
	out["storefs.syncs"] = float64(len(st.fs.syncMs)) / passes
	out["storefs.renames"] = float64(st.fs.renames) / passes
	out["storefs.write_mb"] = float64(st.fs.written) / 1e6 / passes
	out["storefs.busy_frac"] = st.fs.busy.Seconds() / st.wall.Seconds()
	return nil
}

package kernels

import (
	"fmt"

	"emuchick/internal/machine"
	"emuchick/internal/sim"
)

// PingPongConfig parameterizes the ping-pong migration microbenchmark of
// section III-E: N threads migrate back and forth between two nodelets
// several thousand times, exposing the migration engine's throughput and
// the per-migration latency.
type PingPongConfig struct {
	Threads    int
	Iterations int // round trips per thread
	NodeletA   int
	NodeletB   int
}

// PingPongResult reports the migration metrics of Fig. 10's bottom panel.
type PingPongResult struct {
	Migrations       uint64
	Elapsed          sim.Time
	MigrationsPerSec float64
	// MeanLatency is elapsed time per migration per thread — with one
	// thread it is the single-migration latency the paper bounds at
	// 1-2 us.
	MeanLatency sim.Time
}

// PingPong runs the microbenchmark on a fresh system built from mcfg.
func PingPong(mcfg machine.Config, cfg PingPongConfig, opts ...RunOption) (PingPongResult, error) {
	if cfg.Threads <= 0 || cfg.Iterations <= 0 {
		return PingPongResult{}, fmt.Errorf("kernels: invalid ping-pong config %+v", cfg)
	}
	if cfg.NodeletA == cfg.NodeletB {
		return PingPongResult{}, fmt.Errorf("kernels: ping-pong needs two distinct nodelets")
	}
	sys := newSystem(mcfg, opts...)
	if cfg.NodeletA >= sys.Nodelets() || cfg.NodeletB >= sys.Nodelets() {
		return PingPongResult{}, fmt.Errorf("kernels: ping-pong nodelets out of range")
	}
	var out PingPongResult
	if _, err := sys.RunCont(pingRoot(cfg, &out.Elapsed)); err != nil {
		return PingPongResult{}, err
	}
	want := uint64(cfg.Threads) * uint64(cfg.Iterations) * 2
	got := sys.Counters.Nodelet(cfg.NodeletA).MigrationsOut + sys.Counters.Nodelet(cfg.NodeletB).MigrationsOut
	if got != want {
		return PingPongResult{}, fmt.Errorf("kernels: ping-pong migrations %d, want %d", got, want)
	}
	out.Migrations = want
	if out.Elapsed > 0 {
		out.MigrationsPerSec = float64(want) / out.Elapsed.Seconds()
	}
	perThread := want / uint64(cfg.Threads)
	out.MeanLatency = sim.Time(int64(out.Elapsed) / int64(perThread))
	return out, nil
}

// pingWorker migrates back and forth between two nodelets.
type pingWorker struct {
	a, b     int
	iters, i int
	pc       int
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (w *pingWorker) Step(t *machine.CThread) bool {
	for w.i < w.iters {
		switch w.pc {
		case 0:
			w.pc = 1
			if t.CMigrateTo(w.b) {
				return false
			}
		case 1:
			w.pc = 0
			w.i++
			if t.CMigrateTo(w.a) {
				return false
			}
		}
	}
	return true
}

// pingRoot builds the root body of one ping-pong run: spawn every worker on
// nodelet A, sync, and record the elapsed time.
func pingRoot(cfg PingPongConfig, out *sim.Time) machine.CBody {
	fan := &fanout{}
	for k := 0; k < cfg.Threads; k++ {
		fan.add(cfg.NodeletA, &pingWorker{a: cfg.NodeletA, b: cfg.NodeletB, iters: cfg.Iterations})
	}
	return &timedRoot{drive: fan, out: out}
}

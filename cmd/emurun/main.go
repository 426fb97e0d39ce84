// Command emurun runs a single benchmark with explicit parameters and
// prints its measurement plus the machine counters — the workhorse for
// exploring the model outside the fixed paper sweeps. It is a thin parser
// over the jobspec schema: the flags assemble a jobspec.Spec, the kernel
// registry resolves -bench by name, and jobspec.RunKernel takes the
// measurement through experiments.Measure, the runner a sweep cell goes
// through.
//
// Usage:
//
//	emurun -bench stream      [-machine hw|sim|fullspeed] [-nodelets N]
//	       [-threads N] [-elems N] [-strategy serial_spawn|...]
//	emurun -bench chase       [-elems N] [-block N] [-mode full_block_shuffle|...]
//	       [-threads N] [-seed S]
//	emurun -bench spmv        [-n N] [-layout local|1d|2d] [-grain G]
//	emurun -bench pingpong    [-threads N] [-iters N]
//	emurun -bench gups        [-elems N] [-updates N] [-threads N]
//
// Every benchmark accepts -faults/-fault-seed to run on a deterministically
// degraded machine (see internal/fault for the grammar):
//
//	emurun -bench pingpong -faults 'migstall=10us/100us'
//	emurun -bench stream -faults 'chan=4@2' -fault-seed 7
//
// -cell-timeout arms a watchdog that kills a stuck simulation after the
// given wall-clock time and retries it -retries times, as for a sweep cell;
// a run that took more than one attempt says how many. A run that dies in
// the engine (deadlock, event budget, watchdog) prints the structured
// post-mortem — engine time, fired events, every parked process with its
// park site. -checkpoint records the finished measurement, or the
// post-mortem of a failed one, in a write-ahead log; rerunning with
// -resume replays a finished measurement without re-simulating. Ctrl-C
// records nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"emuchick/internal/experiments"
	"emuchick/internal/jobspec"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "emurun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("emurun", flag.ContinueOnError)
	d := kernels.DefaultParams()
	bench := fs.String("bench", "stream", "benchmark: "+strings.Join(kernels.Names(), ", "))
	mach := fs.String("machine", "hw", "machine config: hw, sim, fullspeed")
	nodes := fs.Int("nodes", 1, "node cards (hw and fullspeed)")
	var p kernels.Params
	fs.IntVar(&p.Nodelets, "nodelets", d.Nodelets, "nodelets used by the kernel")
	fs.IntVar(&p.Threads, "threads", d.Threads, "worker threads")
	fs.IntVar(&p.Elems, "elems", d.Elems, "elements (stream: per nodelet; chase/gups: total)")
	fs.StringVar(&p.Strategy, "strategy", d.Strategy, "spawn strategy (stream)")
	fs.IntVar(&p.Block, "block", d.Block, "block size in elements (chase)")
	fs.StringVar(&p.Mode, "mode", d.Mode, "shuffle mode (chase)")
	fs.Uint64Var(&p.Seed, "seed", d.Seed, "workload seed")
	fs.IntVar(&p.GridN, "n", d.GridN, "Laplacian grid size (spmv)")
	fs.StringVar(&p.Layout, "layout", d.Layout, "data layout: local, 1d, 2d (spmv)")
	fs.IntVar(&p.Grain, "grain", d.Grain, "elements per spawn (spmv)")
	fs.IntVar(&p.Iters, "iters", d.Iters, "round trips per thread (pingpong)")
	fs.IntVar(&p.Updates, "updates", d.Updates, "update count (gups)")
	traceOps := fs.Int("trace", 0, "print the first N machine operations of the run")
	// The faults/checkpoint/QoS flags are the shared jobspec block, so their
	// grammar and defaults match emubench and emuvalidate exactly.
	shared := jobspec.FromFlags(fs, jobspec.GroupFaults|jobspec.GroupCheckpoint|jobspec.GroupQoS)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := shared.Spec()
	spec.Kernel = *bench
	spec.Machine = jobspec.Machine{Name: *mach, Nodes: *nodes}
	spec.Params = p
	spec.Parallel = 0 // single measurement: no sweep workers
	if err := spec.Validate(); err != nil {
		return err
	}
	cfg, err := spec.Machine.Config()
	if err != nil {
		return err
	}

	// -trace prints the first N machine operations of the run; a retried
	// attempt replays the same operations.
	var opts []experiments.Option
	if *traceOps > 0 {
		traced := 0
		opts = append(opts, experiments.WithObserver(trace.FuncObserver{OnEvent: func(e trace.Event) {
			if traced < *traceOps {
				traced++
				io.WriteString(out, e.String()+"\n")
			}
		}}))
	}
	// The log is keyed by the spec's fingerprint, so -resume refuses to
	// replay a measurement taken with other workload-shaping parameters. A
	// directory keeps the log as <kernel>.ckpt inside it.
	ckpt := ""
	if shared.Checkpoint != "" {
		ckpt = experiments.CheckpointPath(shared.Checkpoint, spec.Kernel)
		if err := shared.RefuseStaleCheckpoint(ckpt); err != nil {
			return err
		}
		opts = append(opts, experiments.WithCheckpoint(ckpt))
	}

	// Ctrl-C interrupts the simulation instead of killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	m, attempts, err := jobspec.RunKernel(ctx, spec, opts...)
	if attempts > 1 {
		fmt.Fprintf(out, "watchdog: %d attempts (cell timeout %v)\n", attempts, shared.CellTimeout)
	}
	if err != nil {
		renderPostMortem(out, err)
		return err
	}
	if attempts == 0 {
		fmt.Fprintf(out, "(replayed from checkpoint %s)\n", ckpt)
	}
	report(out, cfg, m)
	return nil
}

// report renders a measurement vector (fresh or replayed) in the kernel's
// native vocabulary: the migration block for pingpong, the bandwidth block
// for every byte-moving kernel.
func report(out io.Writer, cfg machine.Config, m kernels.Measurement) {
	if m.Kernel == "pingpong" {
		pp := m.PingPong()
		fmt.Fprintf(out, "machine        %s\n", cfg.Name)
		fmt.Fprintf(out, "migrations     %d\n", pp.Migrations)
		fmt.Fprintf(out, "elapsed        %v\n", pp.Elapsed)
		fmt.Fprintf(out, "rate           %.2f M migrations/s\n", pp.MigrationsPerSec/1e6)
		fmt.Fprintf(out, "mean latency   %v per migration per thread\n", pp.MeanLatency)
		return
	}
	res := m.Result()
	fmt.Fprintf(out, "machine    %s\n", cfg.Name)
	fmt.Fprintf(out, "bytes      %d\n", res.Bytes)
	fmt.Fprintf(out, "elapsed    %v\n", res.Elapsed)
	fmt.Fprintf(out, "bandwidth  %.2f MB/s (%.4f GB/s)\n", res.MBps(), res.GBps())
	fmt.Fprintf(out, "peak       %.1f%% of machine word-traffic peak\n",
		100*res.BytesPerSec()/cfg.PeakMemoryBytesPerSec())
}

// renderPostMortem prints the structured dump of a sim.RunError — engine
// time, fired events, and each parked process with its park site — so a
// hung or deadlocked run is diagnosable without rerunning it.
func renderPostMortem(out io.Writer, err error) {
	var re *sim.RunError
	if !errors.As(err, &re) {
		return
	}
	fmt.Fprintf(out, "post-mortem: %v at t=%v after %d events\n", re.Kind, re.Now, re.Fired)
	const maxListed = 16
	for i, p := range re.Parked {
		if i == maxListed {
			fmt.Fprintf(out, "  ... %d more parked process(es)\n", len(re.Parked)-i)
			break
		}
		if p.HasWake {
			fmt.Fprintf(out, "  parked %-24s at %-16s since t=%v (wake t=%v)\n", p.Name, p.Site, p.ParkedAt, p.WakeAt)
		} else {
			fmt.Fprintf(out, "  parked %-24s at %-16s since t=%v (no pending wake)\n", p.Name, p.Site, p.ParkedAt)
		}
	}
}

// Command emubench regenerates the paper's figures and tables.
//
// Usage:
//
//	emubench [-fig all|fig4,fig6,...] [-format table|csv|chart|all]
//	         [-trials N] [-quick] [-list] [-parallel N]
//	         [-faults spec] [-fault-seed S]
//	         [-checkpoint path [-resume]] [-cell-timeout D] [-retries N]
//	         [-cpuprofile file] [-memprofile file]
//
// -checkpoint appends every completed sweep cell to a write-ahead log as it
// finishes; a run killed mid-sweep (SIGINT included) can be rerun with
// -resume to replay finished cells and produce figures byte-identical to an
// uninterrupted run. -cell-timeout arms a per-cell watchdog: a stuck
// simulation is killed, retried -retries times, then recorded as a failure
// and left as a hole in a figure marked incomplete.
//
// -faults injects a deterministic fault plan into every simulated machine
// (see internal/fault for the grammar), e.g.
//
//	emubench -fig fig5 -faults 'chan=4@2' -fault-seed 7
//	emubench -fig degradation-chase -faults 'migstall=10us/100us'
//
// Each experiment produces the same series the corresponding paper artifact
// plots; -format chart renders an ASCII approximation of the figure so the
// shape (plateaus, dips, crossings) is visible in a terminal, and -format
// csv emits data suitable for real plotting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"emuchick/internal/experiments"
	"emuchick/internal/jobspec"
	"emuchick/internal/metrics"
	"emuchick/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "emubench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("emubench", flag.ContinueOnError)
	figArg := fs.String("fig", "all", "comma-separated experiment ids, or 'all'")
	format := fs.String("format", "table", "output format: table, csv, json, chart, or all")
	list := fs.Bool("list", false, "list experiments and exit")
	outdir := fs.String("outdir", "", "also write each figure as <outdir>/<figure-id>.json")
	// The sweep/faults/checkpoint/QoS flags are the shared jobspec block, so
	// their grammar and defaults match emurun and emuvalidate exactly.
	shared := jobspec.FromFlags(fs, jobspec.GroupSweep|jobspec.GroupFaults|jobspec.GroupCheckpoint|jobspec.GroupQoS)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // materialize the final allocation state
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}

	if *list {
		tab := report.NewTable("id", "title")
		for _, e := range experiments.All() {
			tab.AddRow(e.ID, e.Title)
		}
		_, err := tab.WriteTo(out)
		return err
	}

	var ids []string
	if *figArg == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*figArg, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	if err := shared.RefuseSharedCheckpoint(ids); err != nil {
		return err
	}
	// Check the format and resolve and validate every id before running
	// any, so a typo costs nothing.
	if !slices.Contains(formats, *format) {
		return fmt.Errorf("unknown format %q", *format)
	}
	type job struct {
		e    *experiments.Experiment
		opts []experiments.Option
	}
	jobs := make([]job, 0, len(ids))
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		spec := shared.Spec()
		spec.Experiment = id
		if err := spec.Validate(); err != nil {
			return err
		}
		opts, err := spec.Options()
		if err != nil {
			return err
		}
		if shared.Checkpoint != "" {
			if err := shared.RefuseStaleCheckpoint(experiments.CheckpointPath(shared.Checkpoint, id)); err != nil {
				return err
			}
			opts = append(opts, experiments.WithCheckpoint(shared.Checkpoint))
		}
		jobs = append(jobs, job{e, opts})
	}
	// Ctrl-C cancels cleanly: in-flight simulations notice the context and
	// the profile/outdir deferrals above still run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var incomplete []string
	for _, j := range jobs {
		e := j.e
		start := time.Now()
		figs, err := e.Run(append(j.opts, experiments.WithContext(ctx))...)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(out, "== %s — %s (%.1fs)\n", e.ID, e.Title, time.Since(start).Seconds())
		fmt.Fprintf(out, "   paper: %s\n\n", e.Paper)
		for _, fig := range figs {
			if err := render(out, fig, *format); err != nil {
				return err
			}
			if *outdir != "" {
				if err := writeFigureJSON(*outdir, fig); err != nil {
					return err
				}
			}
			if fig.Incomplete {
				incomplete = append(incomplete, fig.ID)
			}
			fmt.Fprintln(out)
		}
	}
	if len(incomplete) > 0 {
		fmt.Fprintf(out, "WARNING: incomplete figures (failed cells left NaN holes): %s\n",
			strings.Join(incomplete, ", "))
		if shared.Checkpoint != "" {
			fmt.Fprintln(out, "         per-cell failure records (parked procs, engine state) are in the checkpoint log")
		}
	}
	return nil
}

// writeFigureJSON archives one figure under dir as <id>.json.
func writeFigureJSON(dir string, fig *metrics.Figure) error {
	f, err := os.Create(filepath.Join(dir, fig.ID+".json"))
	if err != nil {
		return err
	}
	if err := report.FigureJSON(f, fig); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// formats lists the -format values render takes.
var formats = []string{"table", "csv", "json", "chart", "all"}

func render(out io.Writer, fig *metrics.Figure, format string) error {
	switch format {
	case "table":
		fmt.Fprintf(out, "-- %s: %s (%s)\n", fig.ID, fig.Title, fig.YLabel)
		_, err := report.FigureTable(fig).WriteTo(out)
		return err
	case "csv":
		return report.FigureCSV(out, fig)
	case "json":
		return report.FigureJSON(out, fig)
	case "chart":
		_, err := fmt.Fprint(out, report.AsciiChart(fig, 64, 16))
		return err
	case "all":
		for _, f := range []string{"table", "chart", "csv"} {
			if err := render(out, fig, f); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

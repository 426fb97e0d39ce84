// Command emutrace runs one experiment with the observability layer
// attached and writes the resulting event stream as a Chrome-trace JSON
// file (loadable in Perfetto or chrome://tracing) or as JSONL in the
// trace package's native schema.
//
// Usage:
//
//	emutrace [-fig fig6] [-quick] [-trials N] [-format chrome|jsonl]
//	         [-out file] [-sample dur] [-buf N] [-faults spec] [-fault-seed S]
//	emutrace -validate file
//	emutrace -list
//
// Like the other CLIs it is a parser over the jobspec schema: -fig,
// -quick, -trials, -faults and -fault-seed assemble a jobspec.Spec, whose
// Validate and Options give the run its options.
//
// Tracing never perturbs the simulation: figures and counters are
// bit-identical with and without the observer, so a trace is a faithful
// view of the very run the experiment reports. After writing the file
// emutrace re-validates it and prints a per-nodelet migration summary
// from the in-memory aggregator.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"emuchick/internal/experiments"
	"emuchick/internal/jobspec"
	"emuchick/internal/report"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "emutrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("emutrace", flag.ContinueOnError)
	figArg := fs.String("fig", "fig6", "experiment id to run under the tracer")
	list := fs.Bool("list", false, "list experiment ids and exit")
	quick := fs.Bool("quick", false, "shrink workloads for a fast smoke run")
	trials := fs.Int("trials", 1, "trials per seeded data point (each trial adds a run to the trace)")
	outPath := fs.String("out", "", "trace output file (default: <fig>.trace.json or .jsonl)")
	format := fs.String("format", "chrome", "trace format: chrome (Perfetto-loadable) or jsonl")
	sample := fs.Duration("sample", 0, "gauge-sampling interval in simulated time (0: machine default; negative: disable)")
	buf := fs.Int("buf", 0, "ring-buffer capacity in events, keeps the most recent (0: default)")
	validate := fs.String("validate", "", "validate an existing trace file and exit")
	faults := fs.String("faults", "", "fault plan, e.g. 'migstall=10us/100us' (stall windows appear as fault_stall events)")
	faultSeed := fs.Uint64("fault-seed", 0, "seed for the plan's nodelet choices (0: plan default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		tab := report.NewTable("id", "title")
		for _, e := range experiments.All() {
			tab.AddRow(e.ID, e.Title)
		}
		_, err := tab.WriteTo(out)
		return err
	}
	if *validate != "" {
		return validateFile(out, *validate)
	}
	if *format != "chrome" && *format != "jsonl" {
		return fmt.Errorf("unknown format %q (chrome, jsonl)", *format)
	}

	// The workload flags go through the jobspec schema, as on the other
	// CLIs, so their validation and defaults cannot drift.
	spec := jobspec.Spec{Experiment: *figArg, Trials: *trials, Faults: *faults, FaultSeed: *faultSeed}
	if *quick {
		spec.Scale = jobspec.ScaleQuick
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	opts, err := spec.Options()
	if err != nil {
		return err
	}
	e, err := experiments.ByID(spec.Experiment)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	writer := trace.NewChromeWriter(*buf)
	agg := trace.NewAggregator(0)
	opts = append(opts, experiments.WithObserver(trace.Tee(writer, agg)), experiments.WithContext(ctx))
	if *sample != 0 {
		// time.Duration is nanoseconds, sim.Time is picoseconds.
		opts = append(opts, experiments.WithSampleInterval(sim.Time(sample.Nanoseconds())*sim.Nanosecond))
	}

	start := time.Now()
	figs, err := e.Run(opts...)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}

	path := *outPath
	if path == "" {
		if *format == "jsonl" {
			path = e.ID + ".trace.jsonl"
		} else {
			path = e.ID + ".trace.json"
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if *format == "jsonl" {
		err = writer.WriteJSONL(f)
	} else {
		err = writer.WriteChrome(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	info, err := validateTrace(path)
	if err != nil {
		return fmt.Errorf("written trace failed validation: %w", err)
	}

	fmt.Fprintf(out, "experiment   %s — %s (%d figures, %.1fs wall)\n",
		e.ID, e.Title, len(figs), time.Since(start).Seconds())
	fmt.Fprintf(out, "trace        %s (%s: %d events, %d counter records, %d events + %d samples dropped)\n",
		path, info.Format, info.Events, info.Counters, writer.Dropped(), writer.DroppedSamples())
	fmt.Fprintf(out, "runs         %d simulated runs observed (clocks restart at zero; buckets accumulate)\n",
		agg.Runs())
	fmt.Fprintf(out, "migrations   %d total, peak %.2f M/s over a %v bucket\n",
		agg.TotalMigrations(), agg.PeakMigrationsPerSec()/1e6, agg.Bucket())
	fmt.Fprintf(out, "words        %d loaded/stored (%.1f MB of useful traffic)\n",
		agg.TotalWords(), float64(agg.TotalWords())*8/1e6)

	tab := report.NewTable("nodelet", "migrations out", "migrations in", "words", "peak waiters", "peak chan backlog")
	for nl := 0; nl < agg.Nodelets(); nl++ {
		var mout, min, words uint64
		for _, c := range agg.Cells(nl) {
			mout += c.MigrationsOut
			min += c.MigrationsIn
			words += c.Words
		}
		tab.AddRow(fmt.Sprint(nl), fmt.Sprint(mout), fmt.Sprint(min), fmt.Sprint(words),
			fmt.Sprint(agg.PeakContextWaiters(nl)), fmt.Sprint(agg.PeakChannelBacklog(nl)))
	}
	_, err = tab.WriteTo(out)
	return err
}

// validateTrace sniffs the file's format (a Chrome trace is a JSON array,
// the native schema is JSONL) and runs the matching validator.
func validateTrace(path string) (trace.TraceInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return trace.TraceInfo{}, err
	}
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '[' {
		return trace.ValidateChrome(bytes.NewReader(data))
	}
	return trace.ValidateJSONL(bytes.NewReader(data))
}

func validateFile(out io.Writer, path string) error {
	info, err := validateTrace(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: valid %s trace — %d events (%d migrations), %d counter records, %d metadata records\n",
		path, info.Format, info.Events, info.Migrations, info.Counters, info.Metadata)
	if !info.Complete() {
		fmt.Fprintf(out, "%s: INCOMPLETE — ring dropped %d events and %d samples (rerun with a larger -buf)\n",
			path, info.DroppedEvents, info.DroppedSamples)
	}
	return nil
}

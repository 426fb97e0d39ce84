// Command emuvalidate runs the reproduction scorecard: every checkable
// claim the paper makes, judged pass/fail against the figures the models
// produce, with the measured numbers. It exits non-zero if any claim
// fails, so it doubles as a regression gate for the calibration.
//
// Usage:
//
//	emuvalidate [-quick] [-trials N] [-claim id] [-parallel N]
//	            [-deadline D] [-checkpoint dir [-resume]]
//	            [-cell-timeout D] [-retries N]
//
// Each claim reads the figures of the experiments it names. The scorecard
// runs each of those experiments at most once, lazily, in claim order, and
// hands every claim the figures it reads. A claim that reads a figure with
// failed cells (marked incomplete) fails without being judged.
//
// -deadline bounds the whole scorecard: once it passes, no further claims
// are launched — the remaining ones print as SKIP and the run exits
// non-zero, instead of running open-ended. -checkpoint (a directory path
// keeps one log per experiment) makes the experiments resumable, and with
// -resume an experiment whose log is complete is replayed, not simulated
// (emubench -fig all -checkpoint dir/ leaves such logs). -cell-timeout
// arms the per-cell watchdog, exactly as in emubench.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"emuchick/internal/claims"
	"emuchick/internal/experiments"
	"emuchick/internal/jobspec"
	"emuchick/internal/metrics"
)

func main() {
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emuvalidate:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("emuvalidate", flag.ContinueOnError)
	claimID := fs.String("claim", "", "check a single claim by id")
	deadline := fs.Duration("deadline", 0, "stop launching new claims after this much wall-clock time; remaining claims are marked SKIP and the exit code is non-zero (0 disables)")
	// The sweep/checkpoint/QoS flags are the shared jobspec block, so their
	// grammar and defaults match emubench and emurun exactly.
	shared := jobspec.FromFlags(fs, jobspec.GroupSweep|jobspec.GroupCheckpoint|jobspec.GroupQoS)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	list := claims.All()
	if *claimID != "" {
		c, err := claims.ByID(*claimID)
		if err != nil {
			return false, err
		}
		list = []claims.Claim{c}
	}
	var reads []string
	for _, c := range list {
		reads = append(reads, c.Reads...)
	}
	if err := shared.RefuseSharedCheckpoint(reads); err != nil {
		return false, err
	}
	// Ctrl-C aborts in-flight simulations; with -checkpoint the logs stay
	// valid and a -resume run replays every finished cell.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts, err := shared.Spec().Options()
	if err != nil {
		return false, err
	}
	if shared.Checkpoint != "" {
		opts = append(opts, experiments.WithCheckpoint(shared.Checkpoint))
	}
	opts = append(opts, experiments.WithContext(ctx))
	return score(out, list, shared.Quick, *deadline, func(id string) ([]*metrics.Figure, error) {
		return runExperiment(shared, id, opts)
	})
}

// runExperiment runs one experiment, or replays it from its checkpoint log.
// A log left by an earlier run is only consumed under -resume.
func runExperiment(shared *jobspec.Flags, id string, opts []experiments.Option) ([]*metrics.Figure, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	if shared.Checkpoint != "" {
		if err := shared.RefuseStaleCheckpoint(experiments.CheckpointPath(shared.Checkpoint, id)); err != nil {
			return nil, err
		}
	}
	return e.Run(opts...)
}

// score prints the scorecard for list and reports whether every claim
// passed. runExp produces an experiment's figures; score calls it at most
// once per experiment, when the first claim that reads the experiment is
// reached, so a -deadline that passes leaves later experiments unrun.
func score(out io.Writer, list []claims.Claim, quick bool, deadline time.Duration, runExp func(id string) ([]*metrics.Figure, error)) (bool, error) {
	ran := map[string][]*metrics.Figure{}
	allPass := true
	skipped := 0
	started := time.Now()
	fmt.Fprintf(out, "Reproduction scorecard (%d claims", len(list))
	if quick {
		fmt.Fprint(out, ", quick scale")
	}
	fmt.Fprintln(out, "):")
	for _, c := range list {
		if deadline > 0 && time.Since(started) > deadline {
			skipped++
			fmt.Fprintf(out, "\n[SKIP] %-18s (%s)\n", c.ID, c.Section)
			fmt.Fprintf(out, "  paper:    %s\n", c.Statement)
			fmt.Fprintf(out, "  measured: not run — %v deadline passed after %.1fs\n", deadline, time.Since(started).Seconds())
			continue
		}
		start := time.Now()
		figs := map[string]*metrics.Figure{}
		var incomplete []string
		for _, id := range c.Reads {
			if _, ok := ran[id]; !ok {
				got, err := runExp(id)
				if err != nil {
					return false, fmt.Errorf("%s: %w", c.ID, err)
				}
				ran[id] = got
			}
			for _, f := range ran[id] {
				figs[f.ID] = f
				if f.Incomplete {
					incomplete = append(incomplete, f.ID)
				}
			}
		}
		var v claims.Verdict
		if len(incomplete) > 0 {
			// NaN holes make every comparison false, so a check could pass
			// over them: a claim is judged on complete figures only.
			v.Detail = "not judged: failed cells left NaN holes in " + strings.Join(incomplete, ", ")
		} else {
			var err error
			if v, err = c.Check(figs, quick); err != nil {
				return false, fmt.Errorf("%s: %w", c.ID, err)
			}
		}
		status := "PASS"
		if !v.Pass {
			status = "FAIL"
			allPass = false
		}
		fmt.Fprintf(out, "\n[%s] %-18s (%s, %.1fs)\n", status, c.ID, c.Section, time.Since(start).Seconds())
		fmt.Fprintf(out, "  paper:    %s\n", c.Statement)
		fmt.Fprintf(out, "  measured: %s\n", v.Detail)
	}
	fmt.Fprintln(out)
	switch {
	case skipped > 0:
		fmt.Fprintf(out, "Deadline exceeded: %d claim(s) SKIPPED.\n", skipped)
		return false, nil
	case allPass:
		fmt.Fprintln(out, "All claims reproduced.")
	default:
		fmt.Fprintln(out, "Some claims FAILED.")
	}
	return allPass, nil
}

package jobspec

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"emuchick/internal/experiments"
)

// FromFlags is the one place the shared CLI flag block is defined, so the
// grammar, defaults, and help text of -faults/-checkpoint/-cell-timeout/
// -retries (and friends) cannot diverge between emubench, emurun, and
// emuvalidate. Each CLI asks for the groups it supports; the parsed values
// land in a Flags value whose Spec method seeds a jobspec request.

// Group selects which shared flag blocks a CLI registers.
type Group uint

const (
	// GroupSweep registers -trials, -quick, and -parallel.
	GroupSweep Group = 1 << iota
	// GroupFaults registers -faults and -fault-seed.
	GroupFaults
	// GroupCheckpoint registers -checkpoint and -resume.
	GroupCheckpoint
	// GroupQoS registers -cell-timeout and -retries.
	GroupQoS
)

// Flags holds the parsed values of the shared flag block. Fields of
// unregistered groups keep their defaults.
type Flags struct {
	Trials      int
	Quick       bool
	Parallel    int
	Faults      string
	FaultSeed   uint64
	Checkpoint  string
	Resume      bool
	CellTimeout time.Duration
	Retries     int
}

// FromFlags registers the requested shared flag groups on fs and returns
// the destination the parsed values land in.
func FromFlags(fs *flag.FlagSet, groups Group) *Flags {
	f := &Flags{Parallel: runtime.GOMAXPROCS(0), Retries: 1}
	if groups&GroupSweep != 0 {
		fs.IntVar(&f.Trials, "trials", 0, "trials per seeded data point (default: 10, or 3 with -quick)")
		fs.BoolVar(&f.Quick, "quick", false, "shrink workloads for a fast smoke run")
		fs.IntVar(&f.Parallel, "parallel", f.Parallel, "worker count for independent simulations (results are identical at any setting)")
	}
	if groups&GroupFaults != 0 {
		fs.StringVar(&f.Faults, "faults", "", "fault plan, e.g. 'chan=4@2,migstall=10us/100us' (see internal/fault)")
		fs.Uint64Var(&f.FaultSeed, "fault-seed", 0, "seed for the plan's nodelet choices (0: plan default)")
	}
	if groups&GroupCheckpoint != 0 {
		fs.StringVar(&f.Checkpoint, "checkpoint", "", "write-ahead log of completed work (a directory path keeps one log per experiment); killed runs resume with -resume")
		fs.BoolVar(&f.Resume, "resume", false, "allow resuming from an existing non-empty checkpoint")
	}
	if groups&GroupQoS != 0 {
		fs.DurationVar(&f.CellTimeout, "cell-timeout", 0, "per-cell watchdog: kill any single simulation after this wall-clock time (0 disables)")
		fs.IntVar(&f.Retries, "retries", 1, "extra attempts for a watchdog-killed cell before it is recorded as failed")
	}
	return f
}

// Spec seeds a jobspec request from the shared flags. The caller fills the
// target (experiment or kernel) and any kernel machine/params; Retries maps
// through the QoS encoding (flag 0 → no retries, flag 1 → the default).
func (f *Flags) Spec() Spec {
	s := Spec{
		Trials:     f.Trials,
		Faults:     f.Faults,
		FaultSeed:  f.FaultSeed,
		Parallel:   f.Parallel,
		Checkpoint: CheckpointPolicy{Path: f.Checkpoint},
		QoS:        QoS{CellTimeout: Duration(f.CellTimeout)},
	}
	if f.Quick {
		s.Scale = ScaleQuick
	}
	switch {
	case f.Retries <= 0:
		s.QoS.Retries = -1
	default:
		s.QoS.Retries = f.Retries
	}
	return s
}

// RefuseStaleCheckpoint guards against silently consuming an earlier run's
// write-ahead log: a non-empty log at path is only resumed under -resume.
// Call it for each log about to be opened.
func (f *Flags) RefuseStaleCheckpoint(path string) error {
	if f.Resume {
		return nil
	}
	if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
		return fmt.Errorf("checkpoint %s already holds records; pass -resume to continue that run or delete the file", path)
	}
	return nil
}

// RefuseSharedCheckpoint refuses, before anything runs, a -checkpoint
// that is one log file for a run of more than one experiment (ids may
// repeat): the second would find the first one's log.
func (f *Flags) RefuseSharedCheckpoint(ids []string) error {
	if f.Checkpoint == "" || !slices.ContainsFunc(ids, func(id string) bool { return id != ids[0] }) ||
		experiments.CheckpointPath(f.Checkpoint, ids[0]) != f.Checkpoint {
		return nil
	}
	return fmt.Errorf("checkpoint %s is one log, but this run opens one per experiment; pass -checkpoint %s/ to keep them in that directory", f.Checkpoint, f.Checkpoint)
}

// Package experiments regenerates every table and figure in the paper's
// evaluation section. Each experiment produces one or more metrics.Figure
// values holding the same curves (series over the same swept parameter)
// the paper plots; cmd/emubench renders them as tables, CSV, or ASCII
// charts, and EXPERIMENTS.md records the paper-vs-measured comparison.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"emuchick/internal/cpukernels"
	"emuchick/internal/fault"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/sim"
	"emuchick/internal/storefs"
	"emuchick/internal/trace"
)

// Options is the resolved option set of one experiment run — the value the
// functional options (WithTrials, WithScale, WithParallel, WithObserver,
// WithContext, ...) fold into, and the form Runner functions receive.
// Construct it with ApplyOptions.
type Options struct {
	// Trials is the number of trials per data point for seeded
	// workloads; the paper uses ten. Deterministic kernels (STREAM,
	// SpMV, ping-pong) run once since the simulation is exact.
	Trials int
	// Quick shrinks workload sizes and sweep ranges for CI.
	Quick bool
	// Parallel is the worker count used to fan independent
	// (series × sweep-point × trial) simulations across goroutines;
	// 0 or less means runtime.GOMAXPROCS(0). Results are identical to a
	// sequential run regardless of the setting.
	Parallel int
	// Observer streams every simulated run's machine events and gauge
	// samples (see internal/trace). Attaching an observer forces the
	// experiment sequential so traces from independent simulations do not
	// interleave; figures and counters are unchanged either way.
	Observer trace.Observer
	// SampleInterval overrides the gauge-sampling interval of traced
	// systems: 0 keeps the machine default, negative disables sampling.
	SampleInterval sim.Time
	// Faults injects a deterministic fault plan into every system the
	// experiment builds (nil injects nothing; see internal/fault). A nil or
	// empty plan leaves every figure byte-identical to an uninjected run.
	Faults *fault.Plan
	// FaultSeed overrides the plan's seed when non-zero. It also drives
	// the seeded nodelet choices of the degradation experiments' built-in
	// plans, so a different seed degrades a different nodelet subset.
	FaultSeed uint64
	// Checkpoint, when non-empty, is the path of a write-ahead log: every
	// completed sweep cell is appended as it finishes, and a log left by an
	// interrupted run is resumed — completed cells are replayed instead of
	// re-simulated, with figures byte-identical to an uninterrupted run.
	// Measure keeps one kernel measurement there.
	Checkpoint string
	// CellTimeout arms the per-cell watchdog: a cell's simulation is killed
	// after this much wall-clock time (and, as a deterministic backstop, a
	// scale-derived engine event budget). Killed cells are retried up to
	// Retries times, then recorded as failures and left as NaN holes in the
	// figure, which is marked Incomplete. 0 disables the watchdog.
	CellTimeout time.Duration
	// Retries is how many extra attempts a watchdog-killed cell gets before
	// it is recorded as failed. Only meaningful with CellTimeout set.
	Retries int

	// ctx, when non-nil, cancels in-flight simulations; set via WithContext.
	ctx context.Context
	// ckptFS, when non-nil, is the filesystem the checkpoint WAL is opened
	// on; set via WithCheckpointFS (the job server routes it through its
	// store filesystem so injected storage faults reach WAL appends too).
	// Like Parallel it only changes how the log is written, never which
	// cells run, so it is outside the checkpoint fingerprint.
	ckptFS storefs.FS
	// ckpt is the open write-ahead log for this run, resolved from
	// Checkpoint by Experiment.Run.
	ckpt *checkpoint
	// maxEvents caps each cell's engine at n dispatched events; set by the
	// watchdog (withWatchdog) as the deterministic half of the deadline.
	maxEvents uint64
	// ckptHook, when non-nil, observes every Record call (test hook).
	ckptHook func(recorded int)
}

// Defaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		if o.Quick {
			o.Trials = 3
		} else {
			o.Trials = 10
		}
	}
	return o
}

// Option configures one Experiment.Run call.
type Option interface {
	apply(*Options)
}

// optionFunc adapts a mutation function to the Option interface.
type optionFunc func(*Options)

func (f optionFunc) apply(o *Options) { f(o) }

// WithTrials sets the number of trials per data point.
func WithTrials(n int) Option {
	return optionFunc(func(o *Options) { o.Trials = n })
}

// Scale selects a workload scale for WithScale.
type Scale int

const (
	// FullScale runs the paper-sized workloads.
	FullScale Scale = iota
	// QuickScale shrinks workload sizes and sweep ranges for CI.
	QuickScale
)

// WithScale selects full or quick workloads.
func WithScale(s Scale) Option {
	return optionFunc(func(o *Options) { o.Quick = s == QuickScale })
}

// WithParallel sets the worker count for independent simulations
// (0 or less means runtime.GOMAXPROCS(0)).
func WithParallel(n int) Option {
	return optionFunc(func(o *Options) { o.Parallel = n })
}

// WithObserver streams every simulated run's events and samples to obs and
// forces the experiment sequential (traces from concurrent simulations
// would interleave); results are identical at any parallelism.
func WithObserver(obs trace.Observer) Option {
	return optionFunc(func(o *Options) { o.Observer = obs })
}

// WithSampleInterval overrides the gauge-sampling interval of traced
// systems (0 keeps the machine default, negative disables).
func WithSampleInterval(d sim.Time) Option {
	return optionFunc(func(o *Options) { o.SampleInterval = d })
}

// WithContext makes the run cancellable: once ctx is done, in-flight
// simulations abort and Run returns ctx's error.
func WithContext(ctx context.Context) Option {
	return optionFunc(func(o *Options) { o.ctx = ctx })
}

// WithFaultPlan injects the fault plan into every system the experiment
// builds (nil injects nothing).
func WithFaultPlan(p *fault.Plan) Option {
	return optionFunc(func(o *Options) { o.Faults = p })
}

// WithFaultSeed overrides the fault plan's seed (and seeds the degradation
// experiments' built-in plans); 0 keeps the plan's own seed.
func WithFaultSeed(seed uint64) Option {
	return optionFunc(func(o *Options) { o.FaultSeed = seed })
}

// WithCheckpoint writes a write-ahead log of completed sweep cells (or of
// Measure's measurement) to path and resumes from it if the file already
// holds compatible records; see Options.Checkpoint.
func WithCheckpoint(path string) Option {
	return optionFunc(func(o *Options) { o.Checkpoint = path })
}

// WithCheckpointFS routes the checkpoint write-ahead log through fsys
// instead of the real filesystem; nil keeps the default. Results are
// unchanged by the choice of filesystem.
func WithCheckpointFS(fsys storefs.FS) Option {
	return optionFunc(func(o *Options) { o.ckptFS = fsys })
}

// WithCellTimeout arms the per-cell watchdog; see Options.CellTimeout.
func WithCellTimeout(d time.Duration) Option {
	return optionFunc(func(o *Options) { o.CellTimeout = d })
}

// WithRetries sets how many extra attempts a watchdog-killed cell gets; see
// Options.Retries.
func WithRetries(n int) Option {
	return optionFunc(func(o *Options) { o.Retries = n })
}

// WithCheckpointHook installs a callback observing every checkpoint Record
// call with the running count of freshly recorded cells. The job server uses
// it as its per-job progress signal (and tests as a deterministic mid-sweep
// trigger); it has no effect on results and only fires on checkpointed
// Experiment.Run sweeps, never for Measure.
func WithCheckpointHook(fn func(recorded int)) Option {
	return optionFunc(func(o *Options) { o.ckptHook = fn })
}

// ApplyOptions folds opts in order into an Options value (later options
// win), for facades that accept Option lists.
func ApplyOptions(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		if opt != nil {
			opt.apply(&o)
		}
	}
	return o
}

// KernelOptions converts run-level options into the per-kernel RunOptions an
// experiment threads into each Emu simulation it builds. It returns nil —
// allocating nothing — when no option needs forwarding, which is every
// untraced, uncancelled run.
func (o Options) KernelOptions() []kernels.RunOption {
	if o.Observer == nil && o.ctx == nil && o.SampleInterval == 0 && o.Faults == nil && o.maxEvents == 0 {
		return nil
	}
	ks := make([]kernels.RunOption, 0, 5)
	if o.Observer != nil {
		ks = append(ks, kernels.WithObserver(o.Observer))
	}
	if o.SampleInterval != 0 {
		ks = append(ks, kernels.WithSampleInterval(o.SampleInterval))
	}
	if o.Faults != nil {
		ks = append(ks, kernels.WithFaultPlan(o.faultPlan()))
	}
	if o.ctx != nil {
		ks = append(ks, kernels.WithContext(o.ctx))
	}
	if o.maxEvents > 0 {
		ks = append(ks, kernels.WithMaxEvents(o.maxEvents))
	}
	return ks
}

// xeonOptions is KernelOptions for a Xeon cell: the run's context and the
// watchdog's event budget, the only options a Xeon platform takes (it has
// no observer and no fault model). It returns nil when neither is set.
func (o Options) xeonOptions() []cpukernels.RunOption {
	var xs []cpukernels.RunOption
	if o.ctx != nil {
		xs = append(xs, cpukernels.WithContext(o.ctx))
	}
	if o.maxEvents > 0 {
		xs = append(xs, cpukernels.WithMaxEvents(o.maxEvents))
	}
	return xs
}

// faultPlan is the run's fault plan with any FaultSeed override applied.
func (o Options) faultPlan() *fault.Plan {
	if o.Faults == nil || o.FaultSeed == 0 || o.Faults.Seed == o.FaultSeed {
		return o.Faults
	}
	p := *o.Faults
	p.Seed = o.FaultSeed
	return &p
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string // e.g. "fig5", "stream-anchors"
	Title string
	// Paper summarizes what the paper reports for this artifact — the
	// shape the reproduction is expected to match.
	Paper string
	// Runner produces the experiment's figures from resolved options.
	Runner func(Options) ([]*metrics.Figure, error)
}

// Run executes the experiment with the given functional options. With a
// checkpoint path set, the write-ahead log is opened (resuming any
// compatible records already in it) before the runner starts and closed
// when it returns — interrupting the run at any point leaves a valid log.
func (e *Experiment) Run(opts ...Option) ([]*metrics.Figure, error) {
	o := ApplyOptions(opts...)
	if o.Checkpoint == "" {
		return e.runner(o)
	}
	// The fingerprint covers resolved options (runners fill defaults the
	// same way), so `-quick` and `-quick -trials 3` fingerprint alike.
	ck, err := openCheckpoint(o.ckptFS, CheckpointPath(o.Checkpoint, e.ID), e.ID, optionsFingerprint(e.ID, o.withDefaults()))
	if err != nil {
		return nil, err
	}
	defer ck.Close()
	ck.onRecord = o.ckptHook
	o.ckpt = ck
	return e.runner(o)
}

// Measure takes one kernel measurement through runCell, the loop that runs
// a sweep cell, so it gets the same watchdog deadline, event budget and
// retries, and a deterministic engine death is final. Each attempt runs
// max(Trials, 1) identical trials (an observer sees every one). It returns
// the measurement, the attempts spent, and the last attempt's error, which
// carries the engine's post-mortem when it died in the simulation.
//
// With a checkpoint path set, the log's owner is kernel/<name> and key,
// which must name the workload, is its fingerprint. A complete logged
// measurement is replayed with 0 attempts. A fresh one is logged as its
// values at cells 1..n of sweep 0 and then their count at cell 0, so a log
// killed mid-append never replays a truncated vector; a terminal failure
// logs its post-mortem. An interrupted run logs nothing, as in a sweep.
func Measure(k kernels.Kernel, cfg machine.Config, p kernels.Params, key string, opts ...Option) (kernels.Measurement, int, error) {
	o := ApplyOptions(opts...)
	if o.Checkpoint != "" {
		if key == "" {
			return kernels.Measurement{}, 0, fmt.Errorf("experiments: checkpoint %s needs the measurement's workload key, or it could replay another workload's numbers", o.Checkpoint)
		}
		ck, err := openCheckpoint(o.ckptFS, o.Checkpoint, "kernel/"+k.Name, key)
		if err != nil {
			return kernels.Measurement{}, 0, err
		}
		defer ck.Close()
		if m, ok := ck.measurement(k); ok {
			return m, 0, nil
		}
		o.ckpt = ck
	}
	var m kernels.Measurement
	var last error
	attempts := 0
	// runCell aborts with the run's own context error; last, the attempt's
	// error, wraps it and keeps the post-mortem, so it is what returns.
	_, fail, _ := runCell(o, func(ao Options, _, _, _ int) (float64, error) {
		attempts++
		ro := ao.KernelOptions()
		for range max(ao.Trials, 1) {
			if m, last = k.Run(cfg, p, ro...); last != nil {
				return 0, last
			}
		}
		return 0, nil
	}, 0, 0, 0)
	if fail != nil && o.ckpt != nil {
		if err := o.ckpt.RecordFailure(fail); err != nil {
			return kernels.Measurement{}, attempts, err
		}
	}
	if last != nil {
		return kernels.Measurement{}, attempts, last
	}
	if o.ckpt != nil {
		if err := o.ckpt.recordMeasurement(m); err != nil {
			return kernels.Measurement{}, attempts, err
		}
	}
	return m, attempts, nil
}

// runner wraps the raw Runner so every entry path (checkpointed or not)
// marks figures assembled around failed cells as Incomplete.
func (e *Experiment) runner(o Options) ([]*metrics.Figure, error) {
	figs, err := e.Runner(o)
	for _, fig := range figs {
		fig.MarkIncomplete()
	}
	return figs, err
}

var registry = map[string]*Experiment{}

// register adds an experiment at package init; duplicate IDs are a
// programming error.
func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", e.ID))
	}
	registry[e.ID] = e
}

// ByID returns the experiment with the given id.
func ByID(id string) (*Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs lists registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns every experiment in id order.
func All() []*Experiment {
	var out []*Experiment
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}

// single wraps one-shot measurements as 1-trial stats.
func single(v float64) metrics.Stats {
	return metrics.Aggregate([]float64{v})
}

// seriesName builds labels like "threads=64".
func seriesName(key string, v int) string {
	return fmt.Sprintf("%s=%d", key, v)
}

// machineNs converts nanoseconds to sim.Time for config tweaks.
func machineNs(ns int64) sim.Time { return sim.Time(ns) * sim.Nanosecond }

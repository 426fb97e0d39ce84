package kernels

import (
	"context"
	"io"

	"emuchick/internal/fault"
	"emuchick/internal/machine"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// Package-level tracing hook: kernels build their own System per run, so
// callers that want an operation trace (cmd/emurun's -trace flag) register
// a writer here before invoking a kernel.
var (
	traceWriter io.Writer
	traceLimit  int
)

// TraceNextSystem routes the first limit machine operations of every
// subsequently constructed kernel system to w; pass (nil, 0) to disable.
// Not safe for concurrent kernel invocations — it exists for the
// single-run CLI path.
func TraceNextSystem(w io.Writer, limit int) {
	traceWriter = w
	traceLimit = limit
}

// RunOption configures the System a kernel builds for one run. Every kernel
// entry point accepts trailing RunOptions; passing none costs nothing.
type RunOption func(*runConfig)

type runConfig struct {
	obs       trace.Observer
	sample    sim.Time
	sampleSet bool
	ctx       context.Context
	plan      *fault.Plan
	maxEvents uint64
	engine    ProcEngine
}

// ProcEngine selects how a kernel's simulated threadlets are hosted by the
// event engine.
type ProcEngine int

const (
	// ContinuationProcs (the default) hosts each threadlet as a resumable
	// state machine the event loop steps in place — no goroutine, no
	// channel handoff per context switch, and bounded bytes per threadlet,
	// which is what makes rack-scale thread counts simulable.
	ContinuationProcs ProcEngine = iota
	// GoroutineProcs hosts each threadlet on its own goroutine, parking on
	// a channel at every wait — the original engine, kept as a
	// compatibility shim and as the independent reference implementation
	// the equivalence tests diff the continuation engine against.
	GoroutineProcs
)

// String names the engine for reports and jobspec fingerprints.
func (e ProcEngine) String() string {
	if e == GoroutineProcs {
		return "goroutine"
	}
	return "continuation"
}

// WithProcEngine selects the proc engine for the kernels that still have
// both implementations: STREAM, pointer chase and ping-pong. The two engines
// are byte-identical in simulated time, counters, and traces — this knob
// exists for host-side performance comparison and for regression-testing the
// equivalence, not to change results. SpMV (every layout), SpMV-CSX and GUPS
// have one implementation, on continuation procs, and ignore this option.
func WithProcEngine(e ProcEngine) RunOption {
	return func(c *runConfig) { c.engine = e }
}

// WithObserver streams the run's machine events and gauge samples to obs.
// The observer composes with (does not replace) a TraceNextSystem writer.
func WithObserver(obs trace.Observer) RunOption {
	return func(c *runConfig) { c.obs = obs }
}

// WithSampleInterval sets the gauge-sampling interval of the run's system
// (d <= 0 disables sampling). Without this option the machine default
// applies.
func WithSampleInterval(d sim.Time) RunOption {
	return func(c *runConfig) { c.sample = d; c.sampleSet = true }
}

// WithContext makes the run cancellable: once ctx is done the simulation
// aborts promptly and the kernel returns ctx's error.
func WithContext(ctx context.Context) RunOption {
	return func(c *runConfig) { c.ctx = ctx }
}

// WithFaultPlan injects a deterministic fault plan into the run's system
// before the kernel starts (see internal/fault). A nil or empty plan is a
// no-op and the run stays byte-identical to an uninjected one; later
// WithFaultPlan options replace earlier ones.
func WithFaultPlan(p *fault.Plan) RunOption {
	return func(c *runConfig) { c.plan = p }
}

// WithMaxEvents caps the run at n dispatched engine events: past the budget
// the simulation aborts with a sim.RunError instead of running open-ended.
// 0 keeps the engine unlimited. The experiment watchdog uses this as the
// deterministic half of its deadline (wall clocks vary; event counts don't).
func WithMaxEvents(n uint64) RunOption {
	return func(c *runConfig) { c.maxEvents = n }
}

// resolveRunConfig folds the option list into one runConfig, so kernels with
// engine-dependent bodies can branch on it before building their system.
func resolveRunConfig(opts []RunOption) runConfig {
	var c runConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&c)
		}
	}
	return c
}

// newSystem builds a machine with the package tracing hook and the per-run
// options applied.
func newSystem(cfg machine.Config, opts ...RunOption) *machine.System {
	rc := resolveRunConfig(opts)
	return newSystemRC(cfg, &rc)
}

// newSystemRC is newSystem over an already-resolved runConfig.
func newSystemRC(cfg machine.Config, c *runConfig) *machine.System {
	sys := machine.NewSystem(cfg)
	if traceWriter != nil {
		sys.TraceTo(traceWriter, traceLimit)
	}
	if c.plan != nil {
		sys.InjectFaults(c.plan)
	}
	if c.obs != nil {
		sys.Attach(trace.Tee(sys.Observer(), c.obs))
	}
	if c.sampleSet {
		sys.SampleEvery(c.sample)
	}
	if c.ctx != nil {
		sys.WatchContext(c.ctx)
	}
	if c.maxEvents > 0 {
		sys.Eng.MaxEvents = c.maxEvents
	}
	return sys
}

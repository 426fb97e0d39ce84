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

// newSystem builds a machine with the package tracing hook and the per-run
// options applied.
func newSystem(cfg machine.Config, opts ...RunOption) *machine.System {
	var c runConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&c)
		}
	}
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

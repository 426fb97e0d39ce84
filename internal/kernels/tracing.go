package kernels

import (
	"context"

	"emuchick/internal/fault"
	"emuchick/internal/machine"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

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

// newSystem builds a machine with the per-run options applied.
func newSystem(cfg machine.Config, opts ...RunOption) *machine.System {
	var c runConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&c)
		}
	}
	sys := machine.NewSystem(cfg)
	if c.plan != nil {
		sys.InjectFaults(c.plan)
	}
	sys.Attach(c.obs)
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

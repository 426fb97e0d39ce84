// Package jobspec defines the canonical declarative request schema shared
// by every way of asking this repo to simulate something: the emubench /
// emurun / emuvalidate / emutrace command lines and the cmd/emuserved HTTP
// API are all thin parsers over one Spec. A Spec names either a registered
// experiment (a whole paper artifact sweep) or a registered kernel (one
// measurement), plus the workload-shaping knobs (scale, trials, fault
// plan) and the drive-side knobs (parallelism, checkpoint policy, watchdog
// QoS).
//
// The package is the single source of truth for three contracts:
//
//   - Grammar and defaults: FromFlags registers the shared flag block once,
//     so -faults/-checkpoint/-cell-timeout/-retries cannot drift between
//     CLIs, and Canonical fills the same defaults the flags advertise.
//   - Content addressing: Fingerprint hashes exactly the workload-shaping
//     fields — keyed by the experiments.OptionFields In/Out
//     classification — so identical requests collide (cache hits) and
//     different workloads never do.
//   - Execution: Options and KernelPlan translate a validated Spec into
//     the experiments and kernels APIs, and RunKernel hands a kernel spec
//     to experiments.Measure, which runs it under the sweep's watchdog
//     and retry policy and keeps its write-ahead log.
package jobspec

import (
	"encoding/json"
	"fmt"
	"time"

	"emuchick/internal/experiments"
	"emuchick/internal/fault"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/workload"

	"emuchick/internal/cilk"
)

// Scale names for Spec.Scale.
const (
	ScaleFull  = "full"
	ScaleQuick = "quick"
)

// Machine selects the simulated platform for kernel jobs. Experiment jobs
// build their own machines (each figure fixes its platforms), so they leave
// it zero.
type Machine struct {
	// Name is hw (the prototype), sim (the vendor simulator match), or
	// fullspeed (the design-speed projection). Empty means hw.
	Name string `json:"name,omitempty"`
	// Nodes is the node-card count (hw and fullspeed); 0 means 1.
	Nodes int `json:"nodes,omitempty"`
}

// Config resolves the machine selection, defaulting empty fields.
func (m Machine) Config() (machine.Config, error) {
	nodes := m.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	switch m.Name {
	case "", "hw", "hardware":
		if nodes > 1 {
			return machine.HardwareChickNodes(nodes), nil
		}
		return machine.HardwareChick(), nil
	case "sim", "simulator":
		return machine.SimMatched(), nil
	case "fullspeed", "design":
		return machine.FullSpeed(nodes), nil
	default:
		return machine.Config{}, fmt.Errorf("jobspec: unknown machine %q (hw, sim, fullspeed)", m.Name)
	}
}

// Duration is a time.Duration that marshals as a human-readable string
// ("30s", "2m") and unmarshals from either a string or nanoseconds.
type Duration time.Duration

// MarshalJSON writes the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "30s"-style strings or numeric nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("jobspec: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("jobspec: duration must be a string like \"30s\" or nanoseconds: %s", b)
	}
	*d = Duration(ns)
	return nil
}

// QoS is the per-job watchdog policy (PR 4's per-cell watchdog, expressed
// declaratively).
type QoS struct {
	// CellTimeout kills any single simulation after this wall-clock time
	// (0 disables the watchdog).
	CellTimeout Duration `json:"cell_timeout,omitempty"`
	// Retries is how many extra attempts a watchdog-killed cell gets.
	// 0 means the default (1); negative means none, canonically -1.
	Retries int `json:"retries,omitempty"`
}

// retries resolves the Retries encoding (0 = default 1, negative = 0).
func (q QoS) retries() int {
	if q.Retries == 0 {
		return 1
	}
	if q.Retries < 0 {
		return 0
	}
	return q.Retries
}

// CheckpointPolicy controls job durability. The CLIs point Path at a
// caller-chosen write-ahead log; the job server ignores Path and assigns a
// per-job log under its data directory unless Disable opts out.
type CheckpointPolicy struct {
	// Path is the WAL location for CLI runs (a directory path keeps one
	// log per experiment). Empty disables checkpointing on the CLIs.
	Path string `json:"path,omitempty"`
	// Disable opts a server job out of durability: a killed server
	// forgets the job's partial progress instead of resuming it.
	Disable bool `json:"disable,omitempty"`
}

// Spec is one declarative simulation request. Exactly one of Experiment or
// Kernel must be set.
type Spec struct {
	// Experiment is a registered experiment id (e.g. "fig6"); the job
	// regenerates that paper artifact's figures.
	Experiment string `json:"experiment,omitempty"`
	// Kernel is a registered kernel name (e.g. "gups"); the job takes one
	// measurement on the machine below.
	Kernel string `json:"kernel,omitempty"`
	// Machine and Params configure kernel jobs (unset fields take the
	// kernels.DefaultParams defaults). Experiment jobs must leave them zero.
	Machine Machine        `json:"machine,omitempty"`
	Params  kernels.Params `json:"params,omitempty"`
	// Scale is "full" (paper-sized, the default) or "quick" (CI-sized);
	// experiment jobs only.
	Scale string `json:"scale,omitempty"`
	// Trials repeats each data point (experiments: trials per point; the
	// paper uses 10, quick runs 3). 0 means the scale default.
	Trials int `json:"trials,omitempty"`
	// Faults is a fault-plan spec in the internal/fault grammar, e.g.
	// "chan=4@2,migstall=10us/100us"; empty injects nothing.
	Faults string `json:"faults,omitempty"`
	// FaultSeed seeds the plan's nodelet choices (0: plan default).
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Parallel is the per-job sweep worker count; 0 lets the driver choose.
	// Results are identical at any setting.
	Parallel int `json:"parallel,omitempty"`
	// Checkpoint is the durability policy.
	Checkpoint CheckpointPolicy `json:"checkpoint,omitempty"`
	// QoS is the watchdog/retry policy.
	QoS QoS `json:"qos,omitempty"`
}

// Canonical returns the spec with every defaultable field filled, so two
// requests that mean the same run compare (and fingerprint) equal. It does
// not validate; Validate reports errors on the original form.
func (s Spec) Canonical() Spec {
	c := s
	if c.Scale == "" {
		c.Scale = ScaleFull
	}
	// The canonical form keeps the encoding, so it is a fixed point.
	if c.QoS.Retries == 0 {
		c.QoS.Retries = 1
	} else if c.QoS.Retries < 0 {
		c.QoS.Retries = -1
	}
	if c.Kernel != "" {
		if c.Machine.Name == "" {
			c.Machine.Name = "hw"
		}
		if c.Machine.Nodes <= 0 {
			c.Machine.Nodes = 1
		}
		if c.Trials <= 0 {
			c.Trials = 1
		}
		c.Params = mergeParams(c.Params)
	}
	if c.Experiment != "" && c.Trials <= 0 {
		// Mirrors experiments.Options.withDefaults, so the jobspec
		// fingerprint resolves trials exactly as the sweep runner will.
		if c.Scale == ScaleQuick {
			c.Trials = 3
		} else {
			c.Trials = 10
		}
	}
	return c
}

// mergeParams substitutes the registry defaults for unset (zero) fields.
// NodeletA/NodeletB default as a pair: (0, 0) — both unset — becomes the
// default (0, 1), but an explicit asymmetric choice is kept.
func mergeParams(p kernels.Params) kernels.Params {
	d := kernels.DefaultParams()
	if p.Nodelets == 0 {
		p.Nodelets = d.Nodelets
	}
	if p.Threads == 0 {
		p.Threads = d.Threads
	}
	if p.Elems == 0 {
		p.Elems = d.Elems
	}
	if p.Strategy == "" {
		p.Strategy = d.Strategy
	}
	if p.Block == 0 {
		p.Block = d.Block
	}
	if p.Mode == "" {
		p.Mode = d.Mode
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.GridN == 0 {
		p.GridN = d.GridN
	}
	if p.Layout == "" {
		p.Layout = d.Layout
	}
	if p.Grain == 0 {
		p.Grain = d.Grain
	}
	if p.Iters == 0 {
		p.Iters = d.Iters
	}
	if p.Updates == 0 {
		p.Updates = d.Updates
	}
	if p.NodeletA == 0 && p.NodeletB == 0 {
		p.NodeletA, p.NodeletB = d.NodeletA, d.NodeletB
	}
	return p
}

// Validate checks the spec against the registries and grammars it names.
// It validates the canonical form, so a spec that only omits defaultable
// fields is valid.
func (s Spec) Validate() error {
	c := s.Canonical()
	switch {
	case c.Experiment == "" && c.Kernel == "":
		return fmt.Errorf("jobspec: set exactly one of experiment or kernel")
	case c.Experiment != "" && c.Kernel != "":
		return fmt.Errorf("jobspec: experiment %q and kernel %q are mutually exclusive", c.Experiment, c.Kernel)
	}
	if c.Scale != ScaleFull && c.Scale != ScaleQuick {
		return fmt.Errorf("jobspec: unknown scale %q (full, quick)", s.Scale)
	}
	if s.Trials < 0 || s.Parallel < 0 || s.QoS.CellTimeout < 0 {
		return fmt.Errorf("jobspec: trials, parallel, and qos.cell_timeout must be non-negative")
	}
	if c.Faults != "" {
		if _, err := fault.Parse(c.Faults, c.FaultSeed); err != nil {
			return fmt.Errorf("jobspec: %w", err)
		}
	}
	if c.Experiment != "" {
		if _, err := experiments.ByID(c.Experiment); err != nil {
			return fmt.Errorf("jobspec: %w", err)
		}
		if s.Machine != (Machine{}) || s.Params != (kernels.Params{}) {
			return fmt.Errorf("jobspec: machine and params apply to kernel jobs only")
		}
		return nil
	}
	if _, err := kernels.ByName(c.Kernel); err != nil {
		return fmt.Errorf("jobspec: %w", err)
	}
	if _, err := c.Machine.Config(); err != nil {
		return err
	}
	if _, err := cilk.ParseStrategy(c.Params.Strategy); err != nil {
		return fmt.Errorf("jobspec: %w", err)
	}
	if _, err := workload.ParseShuffleMode(c.Params.Mode); err != nil {
		return fmt.Errorf("jobspec: %w", err)
	}
	if _, err := kernels.ParseSpMVLayout(c.Params.Layout); err != nil {
		return fmt.Errorf("jobspec: %w", err)
	}
	return nil
}

// FaultPlan parses the spec's fault plan, or returns nil when none is set.
func (s Spec) FaultPlan() (*fault.Plan, error) {
	if s.Faults == "" {
		return nil, nil
	}
	return fault.Parse(s.Faults, s.FaultSeed)
}

// Options translates the spec's experiment-facing fields into functional
// options for Experiment.Run (or experiments.ApplyOptions). Zero-valued
// fields emit no option, so downstream defaulting behaves exactly as if the
// corresponding flag had been left unset. Checkpointing is the caller's
// business: the CLI and the server choose different WAL paths.
func (s Spec) Options() ([]experiments.Option, error) {
	var opts []experiments.Option
	if s.Trials > 0 {
		opts = append(opts, experiments.WithTrials(s.Trials))
	}
	if s.Scale == ScaleQuick {
		opts = append(opts, experiments.WithScale(experiments.QuickScale))
	}
	if s.Parallel > 0 {
		opts = append(opts, experiments.WithParallel(s.Parallel))
	}
	plan, err := s.FaultPlan()
	if err != nil {
		return nil, err
	}
	if plan != nil {
		opts = append(opts, experiments.WithFaultPlan(plan))
	}
	if s.FaultSeed != 0 {
		opts = append(opts, experiments.WithFaultSeed(s.FaultSeed))
	}
	if s.QoS.CellTimeout > 0 {
		opts = append(opts, experiments.WithCellTimeout(time.Duration(s.QoS.CellTimeout)))
		opts = append(opts, experiments.WithRetries(s.QoS.retries()))
	}
	return opts, nil
}

// KernelPlan resolves a kernel spec to its registered kernel, machine
// configuration, and fully defaulted parameters.
func (s Spec) KernelPlan() (kernels.Kernel, machine.Config, kernels.Params, error) {
	c := s.Canonical()
	k, err := kernels.ByName(c.Kernel)
	if err != nil {
		return kernels.Kernel{}, machine.Config{}, kernels.Params{}, err
	}
	cfg, err := c.Machine.Config()
	if err != nil {
		return kernels.Kernel{}, machine.Config{}, kernels.Params{}, err
	}
	return k, cfg, c.Params, nil
}

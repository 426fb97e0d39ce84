// Package emuchick is a simulation-backed reproduction of "An Initial
// Characterization of the Emu Chick" (Hein et al., 2018). It models the Emu
// migratory-thread architecture — nodelets pairing narrow NCDRAM channels
// with cache-less, highly multithreaded Gossamer cores, and a migration
// engine that moves thread contexts to data — together with the cache-based
// Xeon platforms the paper compares against, and regenerates every figure
// and table of the paper's evaluation.
//
// The package is a facade over the internal packages:
//
//   - Machine configurations (HardwareChick, SimMatched, FullSpeed) and the
//     Thread and Body API for writing migratory-thread kernels.
//   - The four paper benchmarks: STREAM, PointerChase, SpMV, PingPong (plus
//     GUPS), each on both the Emu model and the Xeon models; Run invokes
//     the Emu side by name.
//   - The experiment registry (Experiments, ExperimentByID) that regenerates
//     Figs. 4-11 and the scalar anchor tables.
//
// Kernels are resumable bodies. A Body's Step issues Thread operations;
// an operation that must wait reports parked=true, and Step then returns
// false and is called again once the operation has completed. A minimal
// program sums a striped array from the main threadlet:
//
//	type sum struct {
//	    at     func(i int) emuchick.Addr
//	    n, i   int
//	    loaded bool
//	    total  uint64
//	}
//
//	func (b *sum) Step(t *emuchick.Thread) bool {
//	    for ; b.i < b.n; b.i++ {
//	        if !b.loaded {
//	            b.loaded = true
//	            if t.CLoad(b.at(b.i)) { // remote elements migrate the thread
//	                return false
//	            }
//	        }
//	        b.total += t.Value()
//	        b.loaded = false
//	    }
//	    return true
//	}
//
//	sys := emuchick.NewSystem(emuchick.HardwareChick())
//	arr := sys.Mem.AllocStriped(1 << 10)
//	elapsed, err := sys.Run(&sum{at: arr.At, n: arr.Len()})
//
// See DESIGN.md for the model's calibration against the paper's published
// rates and EXPERIMENTS.md for the paper-vs-measured comparison of every
// artifact.
package emuchick

import (
	"emuchick/internal/cilk"
	"emuchick/internal/experiments"
	"emuchick/internal/fault"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/metrics"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
	"emuchick/internal/workload"
)

// Core machine types.
type (
	// Config describes one Emu machine configuration.
	Config = machine.Config
	// System is a single-use simulated Emu machine.
	System = machine.System
	// Thread is a Gossamer threadlet; kernels are written against it.
	Thread = machine.CThread
	// Body is a threadlet's resumable program: Step returns true when it
	// has run to completion, false after an operation parked.
	Body = machine.CBody
	// Counters are the per-nodelet event counts the vendor simulator
	// reports (spawns, migrations, memory operations).
	Counters = machine.Counters
	// Time is simulated time in picoseconds.
	Time = sim.Time
	// Addr is a word address in the partitioned global address space.
	Addr = memsys.Addr
	// Result is a measured (bytes, elapsed) pair with bandwidth helpers.
	Result = metrics.Result
	// Strategy is one of the paper's four thread-spawn strategies.
	Strategy = cilk.Strategy
	// ShuffleMode is one of the pointer-chase list permutations of Fig. 2.
	ShuffleMode = workload.ShuffleMode
)

// Machine configuration presets (section III of the paper).
var (
	// HardwareChick is the prototype: 8 nodelets, one 150 MHz Gossamer
	// core each, 64 threadlets, DDR4-1600 NCDRAM, 9 M migrations/s.
	HardwareChick = machine.HardwareChick
	// HardwareChickNodes extends the prototype to several node cards.
	HardwareChickNodes = machine.HardwareChickNodes
	// SimMatched is the vendor simulator configured to match the
	// prototype — identical except its 16 M migrations/s engine.
	SimMatched = machine.SimMatched
	// FullSpeed is the design-speed projection: 300 MHz, 4 cores and
	// 1024 threadlets per nodelet, DDR4-2133.
	FullSpeed = machine.FullSpeed
)

// NewSystem builds a simulated Emu machine from a configuration.
func NewSystem(cfg Config) *System { return machine.NewSystem(cfg) }

// Spawn strategies (section III-E).
const (
	SerialSpawn          = cilk.SerialSpawn
	RecursiveSpawn       = cilk.RecursiveSpawn
	SerialRemoteSpawn    = cilk.SerialRemoteSpawn
	RecursiveRemoteSpawn = cilk.RecursiveRemoteSpawn
)

// List shuffle modes (Fig. 2).
const (
	NoShuffle         = workload.NoShuffle
	IntraBlockShuffle = workload.IntraBlockShuffle
	BlockShuffle      = workload.BlockShuffle
	FullBlockShuffle  = workload.FullBlockShuffle
)

// Spawn trees (see the cilk package), driven from a running Body's Step.
type (
	// Driver is a resumable spawn tree: Drive reports parked=true while the
	// tree is still spawning or joining (the Body's Step must then return
	// false) and parked=false once it has joined.
	Driver = cilk.Driver
	// Workers is the spawn tree NewWorkers builds.
	Workers = cilk.Workers
	// ParFor is the parallel loop NewParallelFor builds.
	ParFor = cilk.ParFor
	// Fanout spawns each body added to it on its nodelet, in order, then
	// joins them; the zero value is empty.
	Fanout = cilk.Fanout
	// Timed is the measured tree NewTimed builds; it is also a Body.
	Timed = cilk.Timed
)

var (
	// NewWorkers prepares workers bodies spread across nodelets with one
	// of the four spawn strategies, joined when Drive finishes.
	NewWorkers = cilk.NewWorkers
	// NewParallelFor prepares a grain-size parallel loop built from
	// recursive spawning, the stand-in for cilk_for the paper's toolchain
	// lacked.
	NewParallelFor = cilk.NewParallelFor
	// NewTimed wraps a Driver so its simulated time, from first Drive to
	// final join, is stored in *out.
	NewTimed = cilk.NewTimed
)

// Benchmark vocabulary (Emu side).
type (
	// SpMVLayout selects local, 1D, or 2D placement (Fig. 3); its String
	// is the KernelParams.Layout name.
	SpMVLayout = kernels.SpMVLayout
	// PingPongResult reports migration throughput and latency.
	PingPongResult = kernels.PingPongResult
)

// SpMV data layouts (Fig. 3).
const (
	SpMVLocal = kernels.SpMVLocal
	SpMV1D    = kernels.SpMV1D
	SpMV2D    = kernels.SpMV2D
)

// Observability: the trace package's observer model, re-exported so
// programs built on the facade can stream and aggregate machine events.
type (
	// Observer receives every traced machine event and gauge sample.
	Observer = trace.Observer
	// TraceEvent is one machine operation (migration, memory op, spawn...).
	TraceEvent = trace.Event
	// TraceSample is one per-nodelet gauge snapshot.
	TraceSample = trace.Sample
	// TraceKind classifies a TraceEvent.
	TraceKind = trace.Kind
	// ChromeWriter buffers a trace and writes Chrome-trace JSON (Perfetto)
	// or JSONL.
	ChromeWriter = trace.ChromeWriter
	// TraceAggregator reduces an event stream to per-nodelet time series.
	TraceAggregator = trace.Aggregator
)

// NewChromeWriter returns a ring-buffered trace sink holding up to capacity
// events (<= 0 selects the default capacity).
func NewChromeWriter(capacity int) *ChromeWriter { return trace.NewChromeWriter(capacity) }

// NewTraceAggregator returns an in-memory sink deriving per-nodelet time
// series with the given bucket width (<= 0 selects the default).
func NewTraceAggregator(bucket Time) *TraceAggregator { return trace.NewAggregator(bucket) }

// TeeObservers fans events out to several observers (nils are dropped).
func TeeObservers(obs ...Observer) Observer { return trace.Tee(obs...) }

// RunOption configures a benchmark or experiment run. The same vocabulary
// serves both: every option applies to Run and to Experiment.Run, except
// WithParallel and WithCheckpoint, which steer Experiment.Run sweeps only.
type RunOption = experiments.Option

// Scale selects full (paper-sized) or quick (CI-sized) workloads.
type Scale = experiments.Scale

// Workload scales for WithScale.
const (
	FullScale  = experiments.FullScale
	QuickScale = experiments.QuickScale
)

// Run options, shared between benchmark entry points and experiments.
var (
	// WithTrials repeats the measurement n times (experiments: trials per
	// data point; Run: reruns of the deterministic kernel,
	// identical results but n runs' worth of events for an observer).
	WithTrials = experiments.WithTrials
	// WithScale selects full or quick workloads (experiments; for Run it
	// only sizes the watchdog's event budget).
	WithScale = experiments.WithScale
	// WithParallel sets the sweep worker count (experiments only).
	WithParallel = experiments.WithParallel
	// WithObserver streams machine events and gauge samples to an Observer.
	WithObserver = experiments.WithObserver
	// WithSampleInterval overrides the gauge-sampling interval
	// (0 keeps the machine default, negative disables).
	WithSampleInterval = experiments.WithSampleInterval
	// WithContext makes the run cancellable.
	WithContext = experiments.WithContext
	// WithFaultPlan injects a deterministic fault plan into every machine
	// the run builds (nil injects nothing; an empty plan is byte-identical
	// to an uninjected run).
	WithFaultPlan = experiments.WithFaultPlan
	// WithFaultSeed overrides the fault plan's seed (0 keeps it).
	WithFaultSeed = experiments.WithFaultSeed
	// WithCheckpoint appends every completed sweep cell to a write-ahead
	// log at the given path and resumes from compatible records already in
	// it; figures after a kill-and-resume are byte-identical to an
	// uninterrupted run (experiments only: Run refuses it).
	WithCheckpoint = experiments.WithCheckpoint
	// WithCellTimeout arms the per-cell watchdog: a cell simulation is
	// killed after this wall-clock time (plus a deterministic event-budget
	// backstop), retried, and finally recorded as a failure — leaving a NaN
	// hole in a figure marked Incomplete, or failing Run with the last
	// attempt's error.
	WithCellTimeout = experiments.WithCellTimeout
	// WithRetries sets how many extra attempts a watchdog-killed cell, or
	// Run's measurement, gets before it is recorded as failed.
	WithRetries = experiments.WithRetries
)

// Fault injection: deterministic degraded-machine scenarios (see
// internal/fault). A plan throttles cores and NCDRAM channels, degrades or
// cuts fabric links inside time windows, and stalls migration engines; the
// machine models a retry-with-backoff path whose retries appear in the
// per-nodelet counters and (as "fault_stall" events) in traces.
type (
	// FaultPlan is one declarative fault scenario; the zero value injects
	// nothing.
	FaultPlan = fault.Plan
	// FaultSlowdown throttles one resource class on a nodelet subset.
	FaultSlowdown = fault.Slowdown
	// FaultLink degrades or cuts fabric links inside a time window.
	FaultLink = fault.LinkFault
	// FaultStall describes periodic migration-engine stall windows.
	FaultStall = fault.Stall
)

// ParseFaultPlan builds a plan from the compact CLI grammar the -faults
// flags use, e.g. "chan=4@2,migstall=10us/100us" (see fault.Parse).
func ParseFaultPlan(spec string, seed uint64) (*FaultPlan, error) {
	return fault.Parse(spec, seed)
}

// The kernel registry, re-exported: every benchmark is invocable by name
// with a flat parameter set, which is what the jobspec schema and the job
// server speak. Run is the single entry point.
type (
	// KernelParams is the flat, kernel-agnostic parameter set; each kernel
	// reads the subset it understands (see DefaultKernelParams).
	KernelParams = kernels.Params
	// Measurement is a kernel run's result flattened to a labelled vector.
	Measurement = kernels.Measurement
)

// Kernels lists the registered benchmark kernel names.
func Kernels() []string { return kernels.Names() }

// DefaultKernelParams returns the registry's default parameter vector — the
// same defaults the emurun flags advertise.
func DefaultKernelParams() KernelParams { return kernels.DefaultParams() }

// Run executes a registered benchmark kernel by name on a fresh machine,
// running it Trials times when WithTrials is given (the simulation is
// deterministic, so trials produce identical results; the knob exists so an
// observer can collect repeated-run traces). WithCellTimeout and
// WithRetries arm the same watchdog a sweep cell gets; WithCheckpoint is
// refused, because a measurement logged under no workload key could replay
// another workload's numbers. Zero-valued params fields are passed through
// as-is, so set every field the kernel reads or start from
// DefaultKernelParams. Read the result with Measurement.Result (bandwidth
// kernels) or Measurement.PingPong.
func Run(cfg Config, kernel string, p KernelParams, opts ...RunOption) (Measurement, error) {
	k, err := kernels.ByName(kernel)
	if err != nil {
		return Measurement{}, err
	}
	m, _, err := experiments.Measure(k, cfg, p, "", opts...)
	return m, err
}

// Experiment regenerates one paper artifact (figure or table).
type Experiment = experiments.Experiment

// ExperimentOptions tunes trials and workload scale.
type ExperimentOptions = experiments.Options

// Figure is a regenerated figure: named series over a swept parameter.
type Figure = metrics.Figure

// Experiments lists every registered paper artifact in id order.
func Experiments() []*Experiment { return experiments.All() }

// ExperimentByID looks up one artifact, e.g. "fig6" or "stream-anchors".
func ExperimentByID(id string) (*Experiment, error) { return experiments.ByID(id) }

// ExperimentIDs lists the registered artifact ids.
func ExperimentIDs() []string { return experiments.IDs() }

package kernels

import (
	"fmt"
	"sort"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/sim"
	"emuchick/internal/workload"
)

// The registry names every benchmark kernel so callers that only hold a
// string — a jobspec request, an emurun flag, the emuchick.Run facade — can
// resolve and invoke it. Each entry adapts the kernel's typed config to the
// flat Params vocabulary shared by the CLI flags and the job server's JSON
// schema, and flattens the kernel's typed result into a Measurement: a
// labelled float64 vector that serializes, checkpoints, and caches
// uniformly.

// Params is the flat, kernel-agnostic parameter set. Every kernel reads the
// subset it understands and ignores the rest; the zero value of a field
// means "unset" (jobspec.Canonical fills defaults, the CLIs supply them as
// flag defaults). Field meanings match the emurun flags of the same name.
type Params struct {
	Nodelets int    `json:"nodelets,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	Elems    int    `json:"elems,omitempty"` // stream: per nodelet; chase/gups: total
	Strategy string `json:"strategy,omitempty"`
	Block    int    `json:"block,omitempty"`
	Mode     string `json:"mode,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	GridN    int    `json:"grid_n,omitempty"`
	Layout   string `json:"layout,omitempty"`
	Grain    int    `json:"grain,omitempty"`
	Iters    int    `json:"iters,omitempty"`
	Updates  int    `json:"updates,omitempty"`
	NodeletA int    `json:"nodelet_a,omitempty"`
	NodeletB int    `json:"nodelet_b,omitempty"`
}

// DefaultParams is the shared default vector — the single source of the
// per-kernel flag defaults emurun historically used, now also the values
// jobspec.Canonical substitutes for unset request fields.
func DefaultParams() Params {
	return Params{
		Nodelets: 8,
		Threads:  64,
		Elems:    4096,
		Strategy: cilk.SerialRemoteSpawn.String(),
		Block:    64,
		Mode:     workload.FullBlockShuffle.String(),
		Seed:     1,
		GridN:    32,
		Layout:   SpMV2D.String(),
		Grain:    16,
		Iters:    1000,
		Updates:  16384,
		NodeletA: 0,
		NodeletB: 1,
	}
}

// Measurement is a kernel run's result flattened to a labelled vector —
// the canonical form recorded in checkpoint logs, cached by the job
// server, and printed by emurun. Values[i] is described by Labels[i].
type Measurement struct {
	Kernel string    `json:"kernel"`
	Labels []string  `json:"labels"`
	Values []float64 `json:"values"`
}

// Result reinterprets a bandwidth-kernel measurement (labels "bytes",
// "elapsed_ps") as a metrics.Result.
func (m Measurement) Result() metrics.Result {
	var r metrics.Result
	if len(m.Values) >= 2 {
		r.Bytes = int64(m.Values[0])
		r.Elapsed = sim.Time(m.Values[1])
	}
	return r
}

// PingPong reinterprets a ping-pong measurement as its typed result.
func (m Measurement) PingPong() PingPongResult {
	var r PingPongResult
	if len(m.Values) >= 4 {
		r.Migrations = uint64(m.Values[0])
		r.Elapsed = sim.Time(m.Values[1])
		r.MigrationsPerSec = m.Values[2]
		r.MeanLatency = sim.Time(m.Values[3])
	}
	return r
}

// bandwidthLabels is the measurement shape shared by every byte-moving
// kernel; pingpongLabels is the migration microbenchmark's.
var (
	bandwidthLabels = []string{"bytes", "elapsed_ps"}
	pingpongLabels  = []string{"migrations", "elapsed_ps", "migrations_per_sec", "mean_latency_ps"}
)

// Kernel is one registered benchmark: a name, the labels of its measurement
// vector, and an adapter from flat Params to the kernel's typed entry point.
type Kernel struct {
	Name string
	Doc  string
	// Labels describe the measurement vector Run produces, in order.
	Labels []string
	Run    func(cfg machine.Config, p Params, opts ...RunOption) (Measurement, error)
}

var kernelRegistry = map[string]Kernel{}

// register adds a kernel at package init; duplicate names are a
// programming error.
func register(k Kernel) {
	if _, dup := kernelRegistry[k.Name]; dup {
		panic(fmt.Sprintf("kernels: duplicate kernel %q", k.Name))
	}
	kernelRegistry[k.Name] = k
}

// ByName resolves a registered kernel.
func ByName(name string) (Kernel, error) {
	k, ok := kernelRegistry[name]
	if !ok {
		return Kernel{}, fmt.Errorf("kernels: unknown kernel %q (have %v)", name, Names())
	}
	return k, nil
}

// Names lists the registered kernel names in sorted order.
func Names() []string {
	names := make([]string, 0, len(kernelRegistry))
	for name := range kernelRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseSpMVLayout maps a layout name back to its SpMVLayout.
func ParseSpMVLayout(name string) (SpMVLayout, error) {
	switch name {
	case "local":
		return SpMVLocal, nil
	case "1d":
		return SpMV1D, nil
	case "2d":
		return SpMV2D, nil
	default:
		return 0, fmt.Errorf("kernels: unknown SpMV layout %q (local, 1d, 2d)", name)
	}
}

// asMeasurement flattens a bandwidth result.
func asMeasurement(kernel string, res metrics.Result, err error) (Measurement, error) {
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{Kernel: kernel, Labels: bandwidthLabels,
		Values: []float64{float64(res.Bytes), float64(res.Elapsed)}}, nil
}

func init() {
	register(Kernel{
		Name:   "stream",
		Doc:    "STREAM ADD bandwidth benchmark (Figs. 4-5)",
		Labels: bandwidthLabels,
		Run: func(cfg machine.Config, p Params, opts ...RunOption) (Measurement, error) {
			strat, err := cilk.ParseStrategy(p.Strategy)
			if err != nil {
				return Measurement{}, err
			}
			res, err := StreamAdd(cfg, StreamConfig{
				ElemsPerNodelet: p.Elems, Nodelets: p.Nodelets, Threads: p.Threads, Strategy: strat,
			}, opts...)
			return asMeasurement("stream", res, err)
		},
	})
	register(Kernel{
		Name:   "chase",
		Doc:    "block-shuffled pointer chasing (Fig. 6)",
		Labels: bandwidthLabels,
		Run: func(cfg machine.Config, p Params, opts ...RunOption) (Measurement, error) {
			mode, err := workload.ParseShuffleMode(p.Mode)
			if err != nil {
				return Measurement{}, err
			}
			res, err := PointerChase(cfg, ChaseConfig{
				Elements: p.Elems, BlockSize: p.Block, Mode: mode, Seed: p.Seed,
				Threads: p.Threads, Nodelets: p.Nodelets,
			}, opts...)
			return asMeasurement("chase", res, err)
		},
	})
	register(Kernel{
		Name:   "spmv",
		Doc:    "CSR SpMV over the synthetic Laplacian (Fig. 9a)",
		Labels: bandwidthLabels,
		Run: func(cfg machine.Config, p Params, opts ...RunOption) (Measurement, error) {
			layout, err := ParseSpMVLayout(p.Layout)
			if err != nil {
				return Measurement{}, err
			}
			res, err := SpMV(cfg, SpMVConfig{GridN: p.GridN, Layout: layout, GrainNNZ: p.Grain}, opts...)
			return asMeasurement("spmv", res, err)
		},
	})
	register(Kernel{
		Name:   "pingpong",
		Doc:    "thread-migration microbenchmark (Fig. 10)",
		Labels: pingpongLabels,
		Run: func(cfg machine.Config, p Params, opts ...RunOption) (Measurement, error) {
			pp, err := PingPong(cfg, PingPongConfig{
				Threads: p.Threads, Iterations: p.Iters, NodeletA: p.NodeletA, NodeletB: p.NodeletB,
			}, opts...)
			if err != nil {
				return Measurement{}, err
			}
			return Measurement{Kernel: "pingpong", Labels: pingpongLabels, Values: []float64{
				float64(pp.Migrations), float64(pp.Elapsed), pp.MigrationsPerSec, float64(pp.MeanLatency),
			}}, nil
		},
	})
	register(Kernel{
		Name:   "gups",
		Doc:    "RandomAccess-style update kernel",
		Labels: bandwidthLabels,
		Run: func(cfg machine.Config, p Params, opts ...RunOption) (Measurement, error) {
			res, err := GUPS(cfg, GUPSConfig{
				TableWords: p.Elems, Updates: p.Updates, Threads: p.Threads, Seed: p.Seed,
			}, opts...)
			return asMeasurement("gups", res, err)
		},
	})
}

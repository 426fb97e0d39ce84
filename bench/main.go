// Command emuperf is the repository's end-to-end benchmark. It runs one
// workload for a fixed measuring window, verifies every output it produced,
// and prints one JSON line with the end-to-end metrics (--trace 0) or the
// per-layer metrics plus a Chrome trace of its spans (--trace 1):
//
//	bash bench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
//	go run ./bench compare parent.jsonl change.jsonl   (from bench/: go run . compare ...)
//	go run ./bench golden                              (regenerates testdata/golden.json)
//
// The workloads, metrics and baselines are described in bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"emuchick/internal/jobspec"
)

// workloads lists every workload with the reason it exists.
var workloads = []struct{ name, why string }{
	{"emu-migrate", "8 continuation-engine Emu figures at full scale, 1 trial: sim events, machine migrations, cilk spawn trees; the control for Xeon and server changes"},
	{"emu-irregular", "fig9a, CSX and replication figures, 12 SpMV cells (local, 1d, 2d) and 16 seeded GUPS cells on the goroutine engine; emu-migrate is its control"},
	{"xeon-cache", "fig9b and 3 fig7 cells (32 MiB list, 20 MiB L3) on the Sandy Bridge/Haswell cache and DRAM model; no Emu machine, the control for Emu changes"},
	{"serve-mix", "emuserved over loopback HTTP, 2 closed-loop clients, 3600 requests per fresh server: 70% cache hits, 25% fresh kernels, 5% faulted experiments"},
}

// runner runs one workload: set-ups that each prepare a pass, and the
// checks that follow the measuring window.
type runner interface {
	setup(tr *tracer, parent int) (pass, error)
	// specs are the workload's job specs, for the jobspec probe.
	specs() []jobspec.Spec
	// verify runs the post-window output checks.
	verify(tr *tracer, parent int)
	// serverLayers returns what traced passes measured of the job server,
	// or nil when the workload does not drive one.
	serverLayers() *serveStats
}

// pass is one set-up's worth of timed work.
type pass interface {
	run(tr *tracer, parent int) error
	close()
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	size     size
	dir      string // scratch space inside the checkout
	spans    string // Chrome trace output of a traced run
	golden   map[string]string
	// transport, when set, carries serve-mix's HTTP requests.
	transport http.RoundTripper
}

func openRunner(cfg config, chk *checker) (runner, error) {
	if cfg.workload == "serve-mix" {
		d := newServeRunner(cfg.seed, cfg.size, chk, cfg.dir)
		d.transport = cfg.transport
		return d, nil
	}
	plan, err := newSweepPlan(cfg.workload, cfg.seed, cfg.size)
	if err != nil {
		return nil, err
	}
	return &sweepRunner{plan: plan, chk: chk}, nil
}

// setupReps is how many set-ups an untraced run times before its first
// pass; setup_s is their median (every later pass adds its own set-up).
const setupReps = 3

// window runs set-ups and passes until another pass would end past the
// window, always completing at least one pass, and returns the set-up and
// pass wall times in seconds.
func window(d runner, tr *tracer, parent int, length time.Duration, reps int) (setups, passes []float64, err error) {
	start := time.Now()
	var p pass
	setup := func() error {
		if p != nil {
			p.close()
			p = nil
		}
		sp := tr.begin("setup", "setup", parent, 0, trackMain)
		t0 := time.Now()
		np, err := d.setup(tr, sp.ID())
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
		p = np
		return err
	}
	defer func() {
		if p != nil {
			p.close()
		}
	}()
	for i := 0; i < reps; i++ {
		if err := setup(); err != nil {
			return nil, nil, err
		}
	}
	for {
		sp := tr.begin("pass", "pass", parent, 0, trackMain)
		t0 := time.Now()
		err := p.run(tr, sp.ID())
		passes = append(passes, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		next := time.Duration((median(setups) + median(passes)) * float64(time.Second))
		if time.Since(start)+next > length {
			return setups, passes, nil
		}
		if err := setup(); err != nil {
			return nil, nil, err
		}
	}
}

// run executes one benchmark run and returns its result line.
func run(cfg config) (result, error) {
	chk := newChecker(cfg.golden)
	d, err := openRunner(cfg, chk)
	if err != nil {
		return result{}, err
	}
	vals := map[string]float64{}
	defs := endToEnd
	if !cfg.trace {
		setups, passes, err := window(d, nil, 0, cfg.window, setupReps)
		if err != nil {
			return result{}, err
		}
		d.verify(nil, 0)
		fmt.Fprintf(os.Stderr, "emuperf: %s seed %d: set-ups %.3f s, passes %.3f s\n", cfg.workload, cfg.seed, setups, passes)
		vals["setup_s"] = median(setups)
		vals["run_s"] = median(passes)
		if vals["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return result{}, err
		}
	} else {
		defs = perLayer
		if err := traced(cfg, d, chk, vals); err != nil {
			return result{}, err
		}
	}
	attempted, failed := chk.counts()
	printed, err := assemble(defs, vals)
	if err != nil && printed == nil {
		return result{}, err
	}
	if err != nil {
		failed++
		fmt.Fprintln(os.Stderr, "emuperf: FAIL:", err)
	}
	return result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: printed}, nil
}

// traced is the --trace 1 run: an untraced half-window for the overhead
// baseline, a traced half-window recording spans, the post-window checks,
// and every layer probe.
func traced(cfg config, d runner, chk *checker, vals map[string]float64) error {
	_, base, err := window(d, nil, 0, cfg.window/2, 1)
	if err != nil {
		return err
	}
	tr := newTracer()
	root := tr.begin("workload", cfg.workload, 0, 0, trackMain)
	rt0 := readRuntime()
	_, passes, err := window(d, tr, root.ID(), cfg.window/2, 1)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	d.verify(tr, root.ID())
	root.end()

	vals["bench.trace_overhead_frac"] = median(passes)/median(base) - 1
	vals["runtime.alloc_mb"] = (rt1.allocBytes - rt0.allocBytes) / 1e6 / float64(len(passes))
	vals["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)

	probes := tr.begin("probes", "probes", 0, 0, trackMain)
	p := &prober{sz: cfg.size, chk: chk, tr: tr, parent: probes.ID(), out: vals}
	err = errors.Join(p.sim(), p.figures(), p.kernels(), p.xeon(), p.jobspec(d.specs()),
		p.server(d.serverLayers(), cfg.seed, cfg.dir, cfg.size == full))
	probes.end()
	if err != nil {
		return err
	}
	if cfg.spans != "" {
		if err := tr.writeChrome(cfg.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "emuperf: %d spans written to %s\n", tr.count(), cfg.spans)
	}
	return nil
}

type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "golden":
			os.Exit(goldenMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("emuperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measuring window in seconds")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics and write spans")
	record := fs.String("record", "", "also append {workload, seed, trace, result} as one line to this JSONL file (input of compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if !slices.Contains(names, *name) || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "emuperf: need --workload (one of %s), --trace 0|1, --seconds >= 0\n", strings.Join(names, ", "))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "emuperf:", err)
		return 1
	}
	golden, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	cfg := config{
		workload: *name, seed: *seed, trace: *traceFlag == 1, size: full, dir: dir, golden: golden,
		window: time.Duration(*seconds * float64(time.Second)),
	}
	if cfg.trace {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	}
	res, err := run(cfg)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	if *record != "" {
		if err := appendRecord(*record, recordLine{cfg.workload, cfg.seed, *traceFlag, res}); err != nil {
			return fail(err)
		}
	}
	fmt.Println(string(line))
	return 0
}

// recordLine is one line of a compare input file.
type recordLine struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, rec recordLine) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

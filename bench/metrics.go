package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json at the
// repository root declares the same set; the schema test keeps them equal.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd metrics are measured with tracing off on every workload. Every
// workload reports each of them, so they are the ones a batch sweep and a
// served request stream share: set-up time, the time for the workload's
// fixed work, and peak memory. Each bound is 0.25, the largest
// BENCHMARK.json accepts: on the shared 2-vCPU host they were measured on,
// host speed swings alone spread ten runs by 5-30% of the median
// (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer metrics come from the traced run: the layer probes, the
// server pass, and the traced passes themselves.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{name: "sim.event_ns", unit: "ns", better: "lower"},
		{name: "sim.cont_proc_ns", unit: "ns", better: "lower"},
		{name: "sim.cont_proc_bytes", unit: "B", better: "lower"},
		{name: "machine.events", unit: "count", better: "lower"},
		{name: "machine.migrations", unit: "count", better: "lower"},
		{name: "machine.spawns", unit: "count", better: "lower"},
		{name: "machine.loads", unit: "count", better: "lower"},
		{name: "machine.stores", unit: "count", better: "lower"},
		{name: "machine.remote_stores", unit: "count", better: "lower"},
		{name: "machine.atomics", unit: "count", better: "lower"},
		{name: "machine.ns_per_event", unit: "ns", better: "lower"},
	}
	for _, id := range probeFigures {
		defs = append(defs, metricDef{name: "experiments." + id + "_s", unit: "s", better: "lower"})
	}
	return append(defs, []metricDef{
		{name: "kernels.spmv_local_ms", unit: "ms", better: "lower"},
		{name: "kernels.spmv_1d_ms", unit: "ms", better: "lower"},
		{name: "kernels.spmv_2d_ms", unit: "ms", better: "lower"},
		{name: "kernels.gups_ms", unit: "ms", better: "lower"},
		{name: "xeon.chase_b1_s", unit: "s", better: "lower"},
		{name: "xeon.chase_b512_s", unit: "s", better: "lower"},
		{name: "xeon.ns_per_access", unit: "ns", better: "lower"},
		{name: "xeon.dram_mb_b1", unit: "MB", better: "lower"},
		{name: "xeon.dram_mb_b512", unit: "MB", better: "lower"},
		{name: "jobspec.fingerprint_us", unit: "us", better: "lower"},
		{name: "jobserver.latency_p50_ms", unit: "ms", better: "lower"},
		{name: "jobserver.latency_p99_ms", unit: "ms", better: "lower"},
		{name: "jobserver.jobs_per_s", unit: "1/s", better: "higher"},
		{name: "jobserver.queue_wait_ms_p50", unit: "ms", better: "lower"},
		{name: "jobserver.queue_wait_ms_p99", unit: "ms", better: "lower"},
		{name: "jobserver.run_ms_p50", unit: "ms", better: "lower"},
		{name: "jobserver.hit_p50_ms", unit: "ms", better: "lower"},
		{name: "jobserver.cold_p50_ms", unit: "ms", better: "lower"},
		{name: "jobserver.cold_p95_ms", unit: "ms", better: "lower"},
		{name: "jobserver.http_submit_ms_p50", unit: "ms", better: "lower"},
		{name: "jobserver.http_result_ms_p50", unit: "ms", better: "lower"},
		{name: "jobserver.waits_per_cold_job", unit: "ratio", better: "lower"},
		{name: "jobserver.simulated", unit: "count", better: "lower"},
		{name: "jobserver.cache_hits", unit: "count", better: "higher"},
		{name: "jobserver.shed", unit: "count", better: "lower"},
		{name: "storefs.syncs", unit: "count", better: "lower"},
		{name: "storefs.sync_ms_p50", unit: "ms", better: "lower"},
		{name: "storefs.sync_ms_p99", unit: "ms", better: "lower"},
		{name: "storefs.renames", unit: "count", better: "lower"},
		{name: "storefs.write_mb", unit: "MB", better: "lower"},
		{name: "storefs.busy_frac", unit: "frac", better: "lower"},
		{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
		{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower"},
		{name: "bench.trace_overhead_frac", unit: "frac", better: "lower"},
	}...)
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// assemble attaches units to vals and checks that it holds exactly the
// declared metrics, each finite. A non-finite value (a latency over failed
// requests) is printed as the largest float and reported as an error.
func assemble(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	var err error
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			err = fmt.Errorf("metric %s is %v", d.name, v)
			v = math.MaxFloat64
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in decimal MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM")
}

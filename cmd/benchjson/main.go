// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document on stdout, so benchmark runs can be archived and
// diffed, and — with -compare — diffs the live run against an archived
// baseline and exits non-zero on regression (the `make bench-gate` target).
//
// Usage:
//
//	# archive: aggregate repeated runs (-count) into per-benchmark stats
//	go test -run '^$' -bench 'BenchmarkFig' -benchtime 1x -count 5 . \
//	  | benchjson > BENCH_engine.json
//
//	# gate: compare a live run against the archived baseline
//	go test -run '^$' -bench 'BenchmarkFig' -benchtime 1x -count 5 . \
//	  | benchjson -compare BENCH_engine.json -tolerance 0.25
//
// Repeated lines for the same benchmark (one per -count run) are aggregated
// into mean/min/max and a 95% confidence half-width per measurement. The
// comparison uses the min statistic — the most noise-robust single number a
// timing distribution offers on a shared machine: interference only ever adds
// time, so the minimum is the closest observation to the code's true cost.
// A benchmark regresses when liveMin > baseMin * (1 + tolerance); benchmarks
// present in the baseline but missing from the live run (deleted or renamed)
// also fail the gate. Benchmarks new in the live run are reported but pass.
//
// Header lines (goos, goarch, pkg, cpu) become the context object. Archived
// baselines in the legacy single-run format (ns_per_op as a plain number)
// still load: a bare number is read as a one-sample stat.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// stat summarizes the samples of one measurement across repeated runs of a
// benchmark (`go test -count=N` emits one line per run).
type stat struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	CI95 float64 `json:"ci95"` // half-width of the 95% CI of the mean (0 with <2 samples)
	N    int     `json:"n"`    // samples aggregated
}

// newStat reduces raw samples to a stat. It panics on an empty slice — a
// benchmark only exists here because at least one line parsed.
func newStat(samples []float64) stat {
	s := stat{Min: samples[0], Max: samples[0], N: len(samples)}
	var sum float64
	for _, v := range samples {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(samples))
	if len(samples) > 1 {
		var ss float64
		for _, v := range samples {
			d := v - s.Mean
			ss += d * d
		}
		sd := math.Sqrt(ss / float64(len(samples)-1))
		s.CI95 = 1.96 * sd / math.Sqrt(float64(len(samples)))
	}
	return s
}

type result struct {
	Name       string          `json:"name"`
	Iterations int64           `json:"iterations"` // total b.N iterations across samples
	NsPerOp    stat            `json:"ns_per_op"`
	Metrics    map[string]stat `json:"metrics,omitempty"`
}

type document struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []result          `json:"benchmarks"`
}

func main() {
	comparePath := flag.String("compare", "", "baseline JSON to diff the live run against; exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns/op slowdown vs baseline (0.25 = +25%)")
	overrides := flag.String("tolerances", "", "per-benchmark overrides, e.g. 'BenchmarkFig7PointerChase=0.5,BenchmarkFig5=0.4'")
	flag.Parse()

	doc, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if *comparePath == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		return
	}

	base, err := loadDocument(*comparePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	per, err := parseOverrides(*overrides)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if !compareDocs(base, doc, compareOptions{tolerance: *tolerance, perBench: per}, os.Stdout) {
		os.Exit(1)
	}
}

func loadDocument(path string) (document, error) {
	var doc document
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// parseOverrides reads 'Name=frac,Name=frac' per-benchmark tolerances.
func parseOverrides(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("tolerances: %q is not Name=frac", part)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("tolerances: bad fraction in %q", part)
		}
		out[name] = f
	}
	return out, nil
}

// parseBench reads `go test -bench` text and aggregates repeated lines per
// benchmark (first-seen order) into stats.
func parseBench(in io.Reader) (document, error) {
	doc := document{Context: map[string]string{}, Benchmarks: []result{}}
	type agg struct {
		iters   int64
		ns      []float64
		metrics map[string][]float64
	}
	byName := map[string]*agg{}
	var order []string

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if key, val, ok := contextLine(line); ok {
			doc.Context[key] = val
			continue
		}
		name, iters, ns, metrics, ok := benchLine(line)
		if !ok {
			continue
		}
		a := byName[name]
		if a == nil {
			a = &agg{}
			byName[name] = a
			order = append(order, name)
		}
		a.iters += iters
		a.ns = append(a.ns, ns)
		for unit, v := range metrics {
			if a.metrics == nil {
				a.metrics = map[string][]float64{}
			}
			a.metrics[unit] = append(a.metrics[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	for _, name := range order {
		a := byName[name]
		r := result{Name: name, Iterations: a.iters, NsPerOp: newStat(a.ns)}
		if len(a.metrics) > 0 {
			r.Metrics = map[string]stat{}
			units := make([]string, 0, len(a.metrics))
			for u := range a.metrics {
				units = append(units, u)
			}
			sort.Strings(units)
			for _, u := range units {
				r.Metrics[u] = newStat(a.metrics[u])
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, r)
	}
	if len(doc.Context) == 0 {
		doc.Context = nil
	}
	return doc, nil
}

// contextLine recognizes the `go test` preamble: "goos: linux" and friends.
func contextLine(line string) (key, val string, ok bool) {
	for _, k := range []string{"goos", "goarch", "pkg", "cpu"} {
		if rest, found := strings.CutPrefix(line, k+":"); found {
			return k, strings.TrimSpace(rest), true
		}
	}
	return "", "", false
}

// benchLine parses "BenchmarkName[-P]  N  V1 unit1  V2 unit2 ...".
// The -P GOMAXPROCS suffix is stripped so names stay stable across hosts.
func benchLine(line string) (name string, iters int64, ns float64, metrics map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, 0, nil, false
	}
	name = fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, 0, nil, false
	}
	// Remaining fields alternate value/unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, 0, nil, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			ns = v
			continue
		}
		if metrics == nil {
			metrics = map[string]float64{}
		}
		metrics[unit] = v
	}
	return name, iters, ns, metrics, true
}

type compareOptions struct {
	tolerance float64
	perBench  map[string]float64
}

func (o compareOptions) limitFor(name string) float64 {
	if f, ok := o.perBench[name]; ok {
		return 1 + f
	}
	return 1 + o.tolerance
}

// compareDocs diffs live against base benchmark by benchmark, writes a
// human-readable report to out, and reports whether the gate passes. A
// benchmark passes when liveMin <= baseMin * limit; one that is present in
// the baseline but absent from the live run fails (deleted or renamed
// without re-archiving); one that is new in the live run is listed but
// cannot regress against a baseline it has no entry in.
func compareDocs(base, live document, opt compareOptions, out io.Writer) bool {
	liveByName := map[string]result{}
	for _, r := range live.Benchmarks {
		liveByName[r.Name] = r
	}
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "%-44s %12s %12s %7s  %s\n", "benchmark", "base(min)", "live(min)", "ratio", "verdict")

	var failures []string
	var logSum float64
	matched := 0
	for _, b := range base.Benchmarks {
		l, ok := liveByName[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-44s %12s %12s %7s  MISSING from live run\n", b.Name, fmtNs(b.NsPerOp.Min), "-", "-")
			failures = append(failures, b.Name+": missing from live run (deleted or renamed?)")
			continue
		}
		delete(liveByName, b.Name)
		if b.NsPerOp.Min <= 0 {
			fmt.Fprintf(w, "%-44s %12s %12s %7s  skipped (no baseline timing)\n", b.Name, "-", fmtNs(l.NsPerOp.Min), "-")
			continue
		}
		ratio := l.NsPerOp.Min / b.NsPerOp.Min
		limit := opt.limitFor(b.Name)
		matched++
		logSum += math.Log(ratio)
		verdict := "ok"
		switch {
		case ratio > limit:
			verdict = fmt.Sprintf("REGRESSION (limit %.2f)", limit)
			failures = append(failures, fmt.Sprintf("%s: %.3fx slower than baseline (limit %.2fx)", b.Name, ratio, limit))
		case ratio < 1:
			verdict = "ok (improved)"
		}
		fmt.Fprintf(w, "%-44s %12s %12s %7.3f  %s\n", b.Name, fmtNs(b.NsPerOp.Min), fmtNs(l.NsPerOp.Min), ratio, verdict)
	}
	// Benchmarks only the live run has, in live order.
	for _, r := range live.Benchmarks {
		if _, stillNew := liveByName[r.Name]; stillNew {
			fmt.Fprintf(w, "%-44s %12s %12s %7s  new (no baseline entry)\n", r.Name, "-", fmtNs(r.NsPerOp.Min), "-")
		}
	}
	if matched > 0 {
		fmt.Fprintf(w, "geomean ratio %.3f over %d benchmark(s), tolerance +%.0f%%\n",
			math.Exp(logSum/float64(matched)), matched, opt.tolerance*100)
	}
	if len(failures) > 0 {
		fmt.Fprintf(w, "FAIL: %d benchmark(s) outside tolerance\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(w, "  %s\n", f)
		}
		return false
	}
	if matched == 0 {
		fmt.Fprintln(w, "FAIL: no benchmarks matched the baseline")
		return false
	}
	fmt.Fprintf(w, "PASS: %d/%d benchmark(s) within tolerance\n", matched, matched)
	return true
}

// fmtNs renders nanoseconds with an adaptive unit.
func fmtNs(ns float64) string {
	switch {
	case ns <= 0:
		return "-"
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.2fus", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.3fms", ns/1e6)
	}
	return fmt.Sprintf("%.3fs", ns/1e9)
}

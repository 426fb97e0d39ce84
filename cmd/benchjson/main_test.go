package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: emuchick
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkFig4StreamSingleNodelet 	       1	   3868043 ns/op	       149.2 simMB/s
BenchmarkFig8Utilization-8       	       2	  51234567 ns/op	        79.90 %ofpeak	    1024 B/op	       3 allocs/op
PASS
ok  	emuchick	0.007s
`

func TestRunParsesBenchOutput(t *testing.T) {
	doc, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Context["goos"] != "linux" || doc.Context["cpu"] == "" {
		t.Fatalf("context = %v", doc.Context)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	b0 := doc.Benchmarks[0]
	if b0.Name != "BenchmarkFig4StreamSingleNodelet" || b0.Iterations != 1 {
		t.Fatalf("b0 = %+v", b0)
	}
	if b0.NsPerOp.Mean != 3868043 || b0.NsPerOp.Min != 3868043 || b0.NsPerOp.N != 1 {
		t.Fatalf("b0.NsPerOp = %+v", b0.NsPerOp)
	}
	if b0.Metrics["simMB/s"].Mean != 149.2 {
		t.Fatalf("b0.Metrics = %v", b0.Metrics)
	}
	b1 := doc.Benchmarks[1]
	if b1.Name != "BenchmarkFig8Utilization" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", b1.Name)
	}
	if b1.Metrics["%ofpeak"].Mean != 79.90 || b1.Metrics["B/op"].Mean != 1024 || b1.Metrics["allocs/op"].Mean != 3 {
		t.Fatalf("b1.Metrics = %v", b1.Metrics)
	}
}

// Repeated lines for the same benchmark (go test -count=N) aggregate into
// one result with min/mean/max over the samples.
func TestParseBenchAggregatesRepeatedRuns(t *testing.T) {
	const repeated = `goos: linux
BenchmarkFigX 	1	 100 ns/op	 10.0 simMB/s
BenchmarkFigX 	1	 140 ns/op	  8.0 simMB/s
BenchmarkFigX 	1	 120 ns/op	  9.0 simMB/s
`
	doc, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", b.Iterations)
	}
	ns := b.NsPerOp
	if ns.N != 3 || ns.Min != 100 || ns.Max != 140 || ns.Mean != 120 {
		t.Fatalf("ns stat = %+v", ns)
	}
	if ns.CI95 <= 0 {
		t.Fatalf("ci95 = %v, want > 0 with 3 samples", ns.CI95)
	}
	m := b.Metrics["simMB/s"]
	if m.N != 3 || m.Min != 8 || m.Max != 10 || m.Mean != 9 {
		t.Fatalf("metric stat = %+v", m)
	}
}

func TestRunIgnoresNonBenchLines(t *testing.T) {
	doc, err := parseBench(strings.NewReader("PASS\nok emuchick 1.2s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("benchmarks = %v", doc.Benchmarks)
	}
	if doc.Context != nil {
		t.Fatalf("context = %v", doc.Context)
	}
}

func TestBenchLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX abc 100 ns/op",
		"NotABench 1 100 ns/op",
		"BenchmarkX 1 xyz ns/op",
	} {
		if _, _, _, _, ok := benchLine(line); ok {
			t.Errorf("benchLine(%q) accepted malformed input", line)
		}
	}
}

// The archived JSON round-trips through the comparator's own reader.
func TestDocumentRoundTrip(t *testing.T) {
	doc, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back document
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmarks[0].NsPerOp != doc.Benchmarks[0].NsPerOp {
		t.Fatalf("round trip: %+v != %+v", back.Benchmarks[0].NsPerOp, doc.Benchmarks[0].NsPerOp)
	}
}

func bench(name string, mins ...float64) result {
	return result{Name: name, Iterations: int64(len(mins)), NsPerOp: newStat(mins)}
}

func docOf(rs ...result) document { return document{Benchmarks: rs} }

// A live run slower than baseline beyond the tolerance fails the gate —
// the "deliberately regressed build" contract of `make bench-gate`.
func TestCompareDetectsRegression(t *testing.T) {
	base := docOf(bench("BenchmarkFigA", 100, 110), bench("BenchmarkFigB", 200, 210))
	live := docOf(bench("BenchmarkFigA", 150, 160), bench("BenchmarkFigB", 205, 215)) // A is 1.5x
	var out bytes.Buffer
	if compareDocs(base, live, compareOptions{tolerance: 0.25}, &out) {
		t.Fatalf("regressed run passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "BenchmarkFigA") {
		t.Fatalf("report does not name the regression:\n%s", out.String())
	}
}

// An across-the-board improvement passes.
func TestCompareAcceptsImprovement(t *testing.T) {
	base := docOf(bench("BenchmarkFigA", 100), bench("BenchmarkFigB", 200))
	live := docOf(bench("BenchmarkFigA", 50), bench("BenchmarkFigB", 120))
	var out bytes.Buffer
	if !compareDocs(base, live, compareOptions{tolerance: 0.25}, &out) {
		t.Fatalf("improved run failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "improved") || !strings.Contains(out.String(), "PASS") {
		t.Fatalf("report missing improvement verdicts:\n%s", out.String())
	}
}

// A benchmark present in the baseline but absent from the live run fails —
// renames and deletions must be re-archived deliberately, never silently.
func TestCompareReportsMissingBenchmark(t *testing.T) {
	base := docOf(bench("BenchmarkFigA", 100), bench("BenchmarkFigGone", 100))
	live := docOf(bench("BenchmarkFigA", 100), bench("BenchmarkFigRenamed", 90))
	var out bytes.Buffer
	if compareDocs(base, live, compareOptions{tolerance: 0.25}, &out) {
		t.Fatalf("missing benchmark passed the gate:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "BenchmarkFigGone") || !strings.Contains(s, "missing") {
		t.Fatalf("report does not call out the missing benchmark:\n%s", s)
	}
	if !strings.Contains(s, "BenchmarkFigRenamed") || !strings.Contains(s, "new") {
		t.Fatalf("report does not list the new benchmark:\n%s", s)
	}
}

// An empty live run (the bench invocation broke) must not pass vacuously.
func TestCompareFailsOnEmptyLiveRun(t *testing.T) {
	base := docOf(bench("BenchmarkFigA", 100))
	var out bytes.Buffer
	if compareDocs(base, docOf(), compareOptions{tolerance: 0.25}, &out) {
		t.Fatalf("empty live run passed the gate:\n%s", out.String())
	}
}

// Exactly at the limit passes; a hair above fails.
func TestCompareThresholdBoundary(t *testing.T) {
	base := docOf(bench("BenchmarkFigA", 1000))
	var out bytes.Buffer
	if !compareDocs(base, docOf(bench("BenchmarkFigA", 1250)), compareOptions{tolerance: 0.25}, &out) {
		t.Fatalf("ratio exactly at limit failed:\n%s", out.String())
	}
	out.Reset()
	if compareDocs(base, docOf(bench("BenchmarkFigA", 1251)), compareOptions{tolerance: 0.25}, &out) {
		t.Fatalf("ratio above limit passed:\n%s", out.String())
	}
}

// Per-benchmark tolerances override the default for named benchmarks only.
func TestComparePerBenchmarkTolerance(t *testing.T) {
	base := docOf(bench("BenchmarkFigNoisy", 100), bench("BenchmarkFigQuiet", 100))
	live := docOf(bench("BenchmarkFigNoisy", 140), bench("BenchmarkFigQuiet", 105))
	opts := compareOptions{tolerance: 0.25, perBench: map[string]float64{"BenchmarkFigNoisy": 0.5}}
	var out bytes.Buffer
	if !compareDocs(base, live, opts, &out) {
		t.Fatalf("override did not widen the noisy benchmark's limit:\n%s", out.String())
	}
	// Without the override the same run fails.
	out.Reset()
	if compareDocs(base, live, compareOptions{tolerance: 0.25}, &out) {
		t.Fatalf("default tolerance unexpectedly accepted the 1.4x slowdown:\n%s", out.String())
	}
}

func TestParseOverrides(t *testing.T) {
	m, err := parseOverrides("BenchmarkA=0.5, BenchmarkB=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if m["BenchmarkA"] != 0.5 || m["BenchmarkB"] != 0.1 {
		t.Fatalf("overrides = %v", m)
	}
	for _, bad := range []string{"BenchmarkA", "BenchmarkA=x", "BenchmarkA=-1"} {
		if _, err := parseOverrides(bad); err == nil {
			t.Errorf("parseOverrides(%q) accepted malformed input", bad)
		}
	}
}

// End-to-end shape of the gate: a baseline archived from bench text, then a
// deliberately regressed live run of the same build, through the same parse
// path `make bench-gate` uses.
func TestGateFailsOnDeliberatelyRegressedBuild(t *testing.T) {
	const baseText = `goos: linux
BenchmarkFig4Stream 	1	 1000000 ns/op
BenchmarkFig7Chase  	1	 5000000 ns/op
`
	const regressedText = `goos: linux
BenchmarkFig4Stream 	1	 2400000 ns/op
BenchmarkFig7Chase  	1	 5100000 ns/op
`
	base, err := parseBench(strings.NewReader(baseText))
	if err != nil {
		t.Fatal(err)
	}
	live, err := parseBench(strings.NewReader(regressedText))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if compareDocs(base, live, compareOptions{tolerance: 0.25}, &out) {
		t.Fatalf("2.4x regression passed the gate:\n%s", out.String())
	}
	// And the same live run against itself passes.
	out.Reset()
	if !compareDocs(live, live, compareOptions{tolerance: 0.25}, &out) {
		t.Fatalf("identical run failed the gate:\n%s", out.String())
	}
}

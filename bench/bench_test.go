package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/workload"
)

// planFingerprint lists a sweep plan's ops (stage by stage, in order) and
// spec fingerprints.
func planFingerprint(t *testing.T, name string, seed uint64) []string {
	t.Helper()
	p, err := newSweepPlan(name, seed, full)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, st := range p.stages {
		for _, o := range st.ops {
			out = append(out, o.cat+"/"+o.name)
		}
	}
	for _, s := range p.specs {
		out = append(out, s.Fingerprint())
	}
	return out
}

func mixFingerprint(seed uint64) []string {
	m := newServeMix(seed, 500, warmupReqs)
	var out []string
	for _, s := range append(m.reqs, m.warm...) {
		out = append(out, s.Fingerprint())
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range []string{"emu-migrate", "emu-irregular", "xeon-cache"} {
		a, b := planFingerprint(t, name, 7), planFingerprint(t, name, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 built two different plans", name)
		}
		other := planFingerprint(t, name, 8)
		// emu-migrate and xeon-cache run only figures and fig7 cells, which
		// the paper fixes; the seed picks emu-irregular's GUPS cells.
		if same := reflect.DeepEqual(a, other); same != (name != "emu-irregular") {
			t.Errorf("%s: seeds 7 and 8 give identical plans = %v", name, same)
		}
	}
	if !reflect.DeepEqual(mixFingerprint(7), mixFingerprint(7)) {
		t.Error("serve-mix: seed 7 built two different request lists")
	}
	if reflect.DeepEqual(mixFingerprint(7), mixFingerprint(8)) {
		t.Error("serve-mix: seeds 7 and 8 built the same request list")
	}
}

func TestServeMixShape(t *testing.T) {
	m := newServeMix(3, 4000, warmupReqs)
	counts := map[string]int{}
	keys := map[string]bool{}
	for _, s := range m.reqs {
		keys[s.Fingerprint()] = true
		if s.Experiment != "" {
			counts["experiment"]++
		}
	}
	for _, s := range m.warm {
		if keys[s.Fingerprint()] {
			t.Fatalf("warm-up spec %+v is also in the timed list", s)
		}
	}
	// 16 hot specs plus one key per fresh request.
	fresh := len(keys) - hotSpecs
	if share := float64(fresh) / 4000; share < 0.27 || share > 0.33 {
		t.Errorf("fresh share %.3f, want about 0.30", share)
	}
	if share := float64(counts["experiment"]) / 4000; share < 0.03 || share > 0.07 {
		t.Errorf("experiment share %.3f, want about 0.05", share)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1: the helper must sort
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {90, 90}, {1, 1}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	// p95 of 100 samples has 5 beyond it; p99 of 500 has 5.
	if _, err := percentile(xs, 95); err == nil {
		t.Error("p95 of 100 samples accepted")
	}
	if _, err := percentile(make([]float64, 500), 99); err == nil {
		t.Error("p99 of 500 samples accepted")
	}
	if _, err := percentile(make([]float64, 1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCountingObserverMatchesCounters(t *testing.T) {
	var c countingObserver
	const elems = 2048
	_, st, err := kernels.PointerChaseWithStats(machine.HardwareChick(), kernels.ChaseConfig{
		Elements: elems, BlockSize: 1, Mode: workload.FullBlockShuffle, Seed: 3, Threads: 32, Nodelets: 8,
	}, kernels.WithObserver(&c))
	if err != nil {
		t.Fatal(err)
	}
	if c.migrations != st.Migrations || st.Migrations == 0 {
		t.Errorf("observer saw %d migrations, machine counted %d", c.migrations, st.Migrations)
	}
	if c.loads != 2*elems {
		t.Errorf("observer saw %d loads, the chase issues %d", c.loads, 2*elems)
	}
	if c.spawns == 0 || c.events < c.loads+c.migrations+c.spawns {
		t.Errorf("implausible totals %+v", c)
	}
}

// tinyRun runs one workload at the tiny size for exactly one pass.
func tinyRun(t *testing.T, name string, trace bool, golden map[string]string, tp http.RoundTripper) (result, string) {
	t.Helper()
	if golden == nil {
		var err error
		if golden, err = loadGolden(); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	cfg := config{workload: name, seed: 5, trace: trace, size: tiny, dir: dir, golden: golden, transport: tp}
	if trace {
		cfg.spans = filepath.Join(dir, "spans.json")
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, cfg.spans
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func printed(res result) []string {
	var out []string
	for name := range res.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		res, _ := tinyRun(t, w.name, false, nil, nil)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if got, want := printed(res), names(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s printed %v, want %v", w.name, got, want)
		}
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}
	}
}

func TestTracedRunTiny(t *testing.T) {
	res, spans := tinyRun(t, "xeon-cache", true, nil, nil)
	if !res.Correct {
		t.Fatalf("traced run incorrect: %d of %d failed", res.Failed, res.Attempted)
	}
	if got, want := printed(res), names(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("printed %v, want %v", got, want)
	}
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("spans are not trace-event JSON: %v", err)
	}
	cats := map[string]bool{}
	for _, e := range doc.TraceEvents {
		cats[e.Cat] = true
	}
	for _, c := range []string{"workload", "pass", "experiments", "xeon", "probe", "request", "http", "storefs"} {
		if !cats[c] {
			t.Errorf("no %q spans in %v", c, cats)
		}
	}
}

func TestCorruptGoldenFails(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	planted := map[string]string{}
	for k, v := range golden {
		planted[k] = v
	}
	planted["fig/quick/t0/fig9b"] = strings.Repeat("0", 64)
	res, _ := tinyRun(t, "xeon-cache", false, planted, nil)
	if res.Failed == 0 || res.Correct {
		t.Errorf("corrupted golden entry went unnoticed: %+v", res)
	}
}

// corruptSecondServe flips one byte of the second result body served for
// any content key, once.
type corruptSecondServe struct {
	base http.RoundTripper
	mu   sync.Mutex
	seen map[string]bool
	done bool
}

func (c *corruptSecondServe) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err != nil || !strings.HasSuffix(r.URL.Path, "/result") {
		return resp, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var head struct {
		Key string `json:"key"`
	}
	_ = json.Unmarshal(b, &head)
	c.mu.Lock()
	if c.seen[head.Key] && !c.done {
		c.done = true
		b = append([]byte(nil), b...)
		b[len(b)/2] ^= 0x20
	}
	c.seen[head.Key] = true
	c.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(b))
	return resp, nil
}

func (c *corruptSecondServe) CloseIdleConnections() {
	c.base.(*http.Transport).CloseIdleConnections()
}

func TestCorruptResultFails(t *testing.T) {
	tp := &corruptSecondServe{base: &http.Transport{}, seen: map[string]bool{}}
	res, _ := tinyRun(t, "serve-mix", false, nil, tp)
	if !tp.done {
		t.Fatal("no key was served twice")
	}
	if res.Failed == 0 || res.Correct {
		t.Errorf("corrupted result byte went unnoticed: %+v", res)
	}
}

// benchmarkJSON is the schema of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesPrintedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(bj.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads declared, benchmark has %d (want 2-8)", n, len(workloads))
	}
	for i, w := range bj.Workloads {
		if i >= len(workloads) {
			break
		}
		if w.Name != workloads[i].name || w.Why != workloads[i].why || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %+v, benchmark runs %+v", i, w, workloads[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) < 1 || len(bj.EndToEnd) > 16 || len(bj.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics declared, %d printed (want 1-16)", len(bj.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bj.EndToEnd {
		if i >= len(endToEnd) {
			break
		}
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: declared %+v, printed %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad name, unit or bound", m.Name)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if bj.EndToEnd[0].Name != "setup_s" || bj.EndToEnd[0].Unit != "s" || bj.EndToEnd[0].Better != "lower" || bj.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be declared in s, lower, with the largest bound: %+v", bj.EndToEnd[0])
	}
	if len(bj.PerLayer) < 1 || len(bj.PerLayer) > 128 || len(bj.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics declared, %d printed (want 1-128)", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || m.Better != perLayer[i].better) {
			t.Errorf("per-layer %d: declared %+v, printed %+v", i, m, perLayer[i])
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: bad name, unit or direction", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range bj.EndToEnd {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
}

func TestCompareVerdicts(t *testing.T) {
	run := func(vals ...float64) []float64 { return vals }
	base := run(10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10, 10.1, 9.9)
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, v := range base {
		faster[i], slower[i] = v*0.8, v*1.3
	}
	rs := metricDef{name: "run_s", unit: "s", better: "lower", bound: 0.1}
	for _, c := range []struct {
		d    metricDef
		p, c []float64
		want string
	}{
		{rs, base, faster, "gain"},
		{rs, base, slower, "REGRESSION"},
		{rs, base, base, "no-change"},
		{rs, base[:5], faster[:5], "too-few-pairs"},
		{rs, run(5, 15, 5, 15, 5, 15, 5, 15, 5, 15), base, "unresolved"},
		{metricDef{name: "n", unit: "count"}, run(3, 3), run(3, 4), "COUNT-MISMATCH"},
		{metricDef{name: "n", unit: "count"}, run(3, 3), run(3, 3), "exact"},
	} {
		if _, _, got := verdict(c.d, c.p, c.c); got != c.want {
			t.Errorf("verdict(%v vs %v) = %s, want %s", c.p, c.c, got, c.want)
		}
	}
}

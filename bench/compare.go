package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// compareMain compares two record files (written with -record) run by run:
// for each workload × metric it prints each side's median and quartiles,
// how many alternating pairs the change won, and a verdict by the rule a
// claimed gain must meet:
//
//   - gain: at least 10 pairs, the change wins at least 9 in 10 (ties count
//     for neither), and the medians differ by more than the parent's
//     interquartile range;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the parent's own spread is wider than the bound, unless
//     every change run beats every parent run;
//   - counts (unit "count") must match exactly, run for run.
//
// It exits 1 on a regression, a count mismatch, or an incorrect run.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: emuperf compare parent.jsonl change.jsonl")
		return 2
	}
	parent, err := readRecords(args[0])
	if err == nil {
		var change []recordLine
		change, err = readRecords(args[1])
		if err == nil {
			bad := compare(os.Stdout, parent, change)
			if bad {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "emuperf compare:", err)
	return 2
}

func readRecords(path string) ([]recordLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []recordLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r recordLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict applies the comparison rule to one metric's runs, in run order.
func verdict(d metricDef, p, c []float64) (wins, pairs int, v string) {
	pairs = min(len(p), len(c))
	better := func(a, b float64) bool { // a better than b
		if d.better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := 0; i < pairs; i++ {
		if better(c[i], p[i]) {
			wins++
		}
	}
	if d.unit == "count" {
		for _, x := range append(append([]float64(nil), p...), c...) {
			if x != p[0] {
				return wins, pairs, "COUNT-MISMATCH"
			}
		}
		return wins, pairs, "exact"
	}
	pq1, pmed, pq3 := quartiles(p)
	_, cmed, _ := quartiles(c)
	iqr := pq3 - pq1
	allBetter := len(p) > 0 && len(c) > 0
	for _, x := range c {
		for _, y := range p {
			allBetter = allBetter && better(x, y)
		}
	}
	worseBy := (cmed - pmed) / math.Abs(pmed)
	if d.better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case pairs < 10:
		return wins, pairs, "too-few-pairs"
	case d.bound > 0 && iqr/math.Abs(pmed) > d.bound && !allBetter:
		return wins, pairs, "unresolved"
	case 10*wins >= 9*pairs && math.Abs(cmed-pmed) > iqr && better(cmed, pmed):
		return wins, pairs, "gain"
	case d.bound > 0 && worseBy > d.bound:
		return wins, pairs, "REGRESSION"
	}
	return wins, pairs, "no-change"
}

// compare prints the comparison table and reports whether it found a
// regression, a count mismatch, or an incorrect run.
func compare(w io.Writer, parent, change []recordLine) (bad bool) {
	type key struct{ workload, metric string }
	values := func(recs []recordLine) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range recs {
			if !r.Result.Correct {
				fmt.Fprintf(w, "incorrect run: %s seed %d (%d of %d failed)\n", r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted)
				bad = true
			}
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	pv, cv := values(parent), values(change)
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.name] = d
	}
	var keys []key
	for k := range pv {
		if _, ok := cv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	for _, k := range keys {
		d, ok := defs[k.metric]
		if !ok {
			continue
		}
		p, c := pv[k], cv[k]
		wins, pairs, v := verdict(d, p, c)
		bad = bad || v == "REGRESSION" || v == "COUNT-MISMATCH"
		pq1, pm, pq3 := quartiles(p)
		cq1, cm, cq3 := quartiles(c)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%d/%d\t%s\n",
			k.workload, k.metric, d.unit, pm, pq1, pq3, cm, cq1, cq3, wins, pairs, v)
	}
	tw.Flush()
	return bad
}

package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"emuchick/internal/claims"
	"emuchick/internal/jobspec"
	"emuchick/internal/metrics"
)

func TestSingleClaim(t *testing.T) {
	var b strings.Builder
	ok, err := run([]string{"-quick", "-trials", "1", "-claim", "migration-rates"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("migration-rates failed:\n%s", b.String())
	}
	out := b.String()
	if !strings.Contains(out, "[PASS] migration-rates") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "paper:") || !strings.Contains(out, "measured:") {
		t.Fatal("scorecard lines missing")
	}
}

func TestBadArgs(t *testing.T) {
	var b strings.Builder
	if _, err := run([]string{"-claim", "nope"}, &b); err == nil {
		t.Fatal("unknown claim accepted")
	}
	if _, err := run([]string{"-bogus"}, &b); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestDeadlineSkipsRemainingClaims: a deadline that has already passed when
// the scorecard starts must skip every claim, mark them SKIP, and report a
// non-zero ("not ok") result rather than running open-ended.
func TestDeadlineSkipsRemainingClaims(t *testing.T) {
	var b strings.Builder
	ok, err := run([]string{"-quick", "-trials", "1", "-deadline", "1ns"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("deadline-skipped scorecard reported success")
	}
	out := b.String()
	if !strings.Contains(out, "[SKIP]") {
		t.Fatalf("no SKIP lines in output:\n%s", out)
	}
	if strings.Contains(out, "[PASS]") || strings.Contains(out, "[FAIL]") {
		t.Fatalf("claims ran despite an expired deadline:\n%s", out)
	}
	if !strings.Contains(out, "Deadline exceeded") {
		t.Fatalf("missing deadline summary:\n%s", out)
	}
}

// TestStaleCheckpointRefusedWithoutResume: pointing -checkpoint at a
// directory holding earlier records without -resume must be refused.
func TestStaleCheckpointRefusedWithoutResume(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fig4.ckpt"), []byte(`{"type":"header"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if _, err := run([]string{"-quick", "-checkpoint", dir}, &b); err == nil {
		t.Fatal("stale checkpoint directory accepted without -resume")
	} else if !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("refusal does not mention -resume: %v", err)
	}
}

// TestCheckpointFileRefusedForManyExperiments: the scorecard opens a log
// per experiment it reads, so a -checkpoint file path is refused before
// any experiment runs, and the error names the directory form to pass
// instead. A claim that reads one experiment may still use the file.
func TestCheckpointFileRefusedForManyExperiments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	var b strings.Builder
	_, err := run([]string{"-quick", "-checkpoint", path}, &b)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint "+path+"/") {
		t.Fatalf("eleven experiments on one log file: err %v, want one naming %s/", err, path)
	}
	if b.Len() != 0 {
		t.Errorf("the scorecard started before the refusal:\n%s", b.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("the refused run touched its log: %v", err)
	}
	b.Reset()
	if ok, err := run([]string{"-quick", "-trials", "1", "-claim", "migration-rates", "-checkpoint", path}, &b); err != nil || !ok {
		t.Fatalf("one experiment on one log file: ok=%v err=%v\n%s", ok, err, b.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("the one experiment left no log: %v", err)
	}
}

// TestScorecardRunsEachExperimentOnce: the fifteen claims read eleven
// experiments, and a fresh quick scorecard runs each of them exactly once.
func TestScorecardRunsEachExperimentOnce(t *testing.T) {
	shared := &jobspec.Flags{Quick: true, Parallel: 2, Retries: 1}
	opts, err := shared.Spec().Options()
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{}
	var b strings.Builder
	ok, err := score(&b, claims.All(), true, 0, func(id string) ([]*metrics.Figure, error) {
		calls[id]++
		return runExperiment(shared, id, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || strings.Count(b.String(), "\n[PASS] ") != 15 {
		t.Fatalf("quick scorecard did not pass all 15 claims:\n%s", b.String())
	}
	if len(calls) != 11 {
		t.Fatalf("ran %d experiments, want 11: %v", len(calls), calls)
	}
	for id, n := range calls {
		if n != 1 {
			t.Errorf("experiment %s ran %d times", id, n)
		}
	}
}

// TestResumedScorecardSimulatesNothing: a quick scorecard resumed from the
// logs of a checkpointed one replays every experiment. Each simulated cell
// appends a cell or fail record to its log, so logs that stay byte-identical
// mean that no cell was simulated.
func TestResumedScorecardSimulatesNothing(t *testing.T) {
	dir := t.TempDir() + "/"
	var fresh strings.Builder
	if ok, err := run([]string{"-quick", "-checkpoint", dir}, &fresh); err != nil || !ok {
		t.Fatalf("checkpointed scorecard: ok=%v err=%v\n%s", ok, err, fresh.String())
	}
	logs, err := filepath.Glob(dir + "*.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 11 {
		t.Fatalf("%d logs, want one per experiment read (11): %v", len(logs), logs)
	}
	before := map[string][]byte{}
	for _, path := range logs {
		if before[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	var resumed strings.Builder
	if ok, err := run([]string{"-quick", "-checkpoint", dir, "-resume"}, &resumed); err != nil || !ok {
		t.Fatalf("resumed scorecard: ok=%v err=%v\n%s", ok, err, resumed.String())
	}
	for path, want := range before {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed on resume: %d -> %d bytes", filepath.Base(path), len(want), len(got))
		}
	}
	timing := regexp.MustCompile(`, [0-9.]+s\)`)
	if f, r := timing.ReplaceAllString(fresh.String(), ")"), timing.ReplaceAllString(resumed.String(), ")"); f != r {
		t.Fatalf("resumed scorecard differs from the fresh one:\nfresh:\n%s\nresumed:\n%s", f, r)
	}
}

// TestIncompleteFigureFailsItsClaims: a claim over a figure with NaN holes
// fails and names the figure, even where its check would pass on the
// numbers that survived. No simulation runs: the figures are hand-built.
func TestIncompleteFigureFailsItsClaims(t *testing.T) {
	fig6 := func(holes bool) *metrics.Figure {
		s := &metrics.Series{Name: "threads=256"}
		s.Add(1, metrics.Stats{Mean: 164})
		s.Add(8, metrics.Stats{Mean: 741})
		for _, x := range []float64{64, 512} {
			st := metrics.Stats{Mean: 760}
			if holes {
				st = metrics.Stats{Mean: math.NaN(), Failed: 1}
			}
			s.Add(x, st)
		}
		f := &metrics.Figure{ID: "fig6", Series: []*metrics.Series{s}}
		f.MarkIncomplete()
		return f
	}
	var list []claims.Claim
	for _, id := range []string{"chase-flat", "block1-dip"} {
		c, err := claims.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := c.Check(map[string]*metrics.Figure{"fig6": fig6(true)}, false); err != nil || !v.Pass {
			t.Fatalf("%s should pass on the surviving numbers alone: %+v, %v", id, v, err)
		}
		list = append(list, c)
	}
	for _, holes := range []bool{false, true} {
		var b strings.Builder
		ok, err := score(&b, list, false, 0, func(id string) ([]*metrics.Figure, error) {
			if id != "fig6" {
				t.Fatalf("read experiment %s", id)
			}
			return []*metrics.Figure{fig6(holes)}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out, want := b.String(), "PASS"
		if holes {
			want = "FAIL"
		}
		if ok == holes || strings.Count(out, "\n["+want+"] ") != 2 {
			t.Fatalf("holes=%v: ok=%v\n%s", holes, ok, out)
		}
		if holes && strings.Count(out, "not judged: failed cells left NaN holes in fig6") != 2 {
			t.Fatalf("the FAIL lines do not name fig6:\n%s", out)
		}
	}
}

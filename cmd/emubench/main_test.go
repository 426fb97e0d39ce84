package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, id := range []string{"fig4", "fig8", "fig11", "stream-anchors", "ablation-grain"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestRunSingleFigureTable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "fig4", "-quick", "-trials", "1"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "serial_spawn") || !strings.Contains(out, "recursive_spawn") {
		t.Fatalf("fig4 table missing series:\n%s", out)
	}
	if !strings.Contains(out, "paper:") {
		t.Fatal("paper expectation line missing")
	}
}

func TestRunMultipleFiguresCSV(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "migration-anchors,stream-anchors", "-quick", "-trials", "1", "-format", "csv"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "figure,series,x,mean") {
		t.Fatal("csv header missing")
	}
	if !strings.Contains(out, "migration-anchors,measured") {
		t.Fatalf("csv rows missing:\n%s", out)
	}
}

func TestRunChartAndJSON(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "fig4", "-quick", "-trials", "1", "-format", "chart"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "o = serial_spawn") {
		t.Fatalf("chart legend missing:\n%s", b.String())
	}
	b.Reset()
	if err := run([]string{"-fig", "fig4", "-quick", "-trials", "1", "-format", "json"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\"id\": \"fig4\"") {
		t.Fatal("json output missing")
	}
}

func TestOutdirArchivesJSON(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-fig", "fig4", "-quick", "-trials", "1", "-outdir", dir}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"id\": \"fig4\"") {
		t.Fatalf("archived json malformed:\n%s", data)
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "nope"}, &b); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := run([]string{"-fig", "fig4", "-quick", "-format", "bogus"}, &b); err == nil {
		t.Fatal("unknown format accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &b); err == nil {
		t.Fatal("bad flag accepted")
	}
	// Every id is resolved before the first experiment runs, so a typo at
	// the end of the list prints nothing.
	var typo strings.Builder
	err := run([]string{"-fig", "fig4,nope", "-quick"}, &typo)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) {
		t.Fatalf("-fig fig4,nope: err = %v, want the unknown-id error", err)
	}
	if typo.Len() != 0 {
		t.Errorf("fig4 ran before the unknown id was refused:\n%s", typo.String())
	}
	// So is the format.
	var format strings.Builder
	err = run([]string{"-fig", "fig4,fig5", "-quick", "-format", "bogus"}, &format)
	if err == nil || !strings.Contains(err.Error(), `unknown format "bogus"`) {
		t.Fatalf("-format bogus: err = %v, want the unknown-format error", err)
	}
	if format.Len() != 0 {
		t.Errorf("fig4 ran before the unknown format was refused:\n%s", format.String())
	}
}

// TestCheckpointFileRefusedForManyExperiments: a -checkpoint file path is
// one log, so a run of two experiments is refused before either runs, and
// the error names the directory form to pass instead.
func TestCheckpointFileRefusedForManyExperiments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	var b strings.Builder
	err := run([]string{"-quick", "-fig", "fig4,fig5", "-checkpoint", path}, &b)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint "+path+"/") {
		t.Fatalf("two experiments on one log file: err %v, want one naming %s/", err, path)
	}
	if b.Len() != 0 {
		t.Errorf("an experiment ran before the refusal:\n%s", b.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("the refused run touched its log: %v", err)
	}
}

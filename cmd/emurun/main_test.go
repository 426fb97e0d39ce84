package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emuchick/internal/jobspec"
)

func TestMachineFor(t *testing.T) {
	hw, err := jobspec.Machine{Name: "hw", Nodes: 1}.Config()
	if err != nil || hw.Nodes != 1 {
		t.Fatalf("hw: %+v, %v", hw, err)
	}
	multi, err := jobspec.Machine{Name: "hardware", Nodes: 4}.Config()
	if err != nil || multi.Nodes != 4 {
		t.Fatalf("hw multi-node: %+v, %v", multi, err)
	}
	sim, err := jobspec.Machine{Name: "sim", Nodes: 1}.Config()
	if err != nil || sim.MigrationsPerSec != 16e6 {
		t.Fatalf("sim: %+v, %v", sim, err)
	}
	fast, err := jobspec.Machine{Name: "fullspeed"}.Config()
	if err != nil || fast.Nodes != 1 || fast.CoreHz != 300e6 {
		t.Fatalf("fullspeed: %+v, %v", fast, err)
	}
	if _, err := (jobspec.Machine{Name: "tpu", Nodes: 1}).Config(); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRunStream(t *testing.T) {
	out := runOK(t, "-bench", "stream", "-elems", "64", "-threads", "16")
	if !strings.Contains(out, "bandwidth") || !strings.Contains(out, "emu-chick-hw") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunChase(t *testing.T) {
	out := runOK(t, "-bench", "chase", "-elems", "512", "-block", "8", "-threads", "16")
	if !strings.Contains(out, "% of machine word-traffic peak") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunSpMVAllLayouts(t *testing.T) {
	for _, layout := range []string{"local", "1d", "2d"} {
		out := runOK(t, "-bench", "spmv", "-n", "8", "-layout", layout)
		if !strings.Contains(out, "bandwidth") {
			t.Fatalf("%s output:\n%s", layout, out)
		}
	}
}

func TestRunPingPong(t *testing.T) {
	out := runOK(t, "-bench", "pingpong", "-threads", "4", "-iters", "50")
	if !strings.Contains(out, "M migrations/s") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunGUPS(t *testing.T) {
	out := runOK(t, "-bench", "gups", "-elems", "64", "-updates", "256", "-threads", "8")
	if !strings.Contains(out, "bandwidth") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunOnOtherMachines(t *testing.T) {
	out := runOK(t, "-bench", "chase", "-machine", "fullspeed", "-nodes", "8",
		"-nodelets", "64", "-elems", "2048", "-block", "8", "-threads", "128")
	if !strings.Contains(out, "emu-fullspeed-8node") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunTraceFlag(t *testing.T) {
	out := runOK(t, "-bench", "chase", "-elems", "64", "-block", "4", "-threads", "4", "-trace", "5")
	if !strings.Contains(out, "spawn") && !strings.Contains(out, "load") {
		t.Fatalf("trace lines missing:\n%s", out)
	}
	// The limit bounds the trace: count trace-looking lines.
	lines := 0
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, " nl") {
			lines++
		}
	}
	if lines != 5 {
		t.Fatalf("trace emitted %d lines, want 5", lines)
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	var b strings.Builder
	cases := [][]string{
		{"-bench", "nothing"},
		{"-bench", "stream", "-strategy", "bogus"},
		{"-bench", "chase", "-mode", "bogus"},
		{"-bench", "spmv", "-layout", "bogus"},
		{"-machine", "bogus"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		if err := run(args, &b); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunCheckpointRecordsAndReplays pins the kernel log's bytes: the
// header keyed by the spec's fingerprint, the values at cells 1..n, then
// the count at cell 0. A rerun needs -resume and replays the same numbers;
// a rerun with another workload is refused naming both fingerprints. A
// -checkpoint directory keeps the same log as gups.ckpt inside it.
func TestRunCheckpointRecordsAndReplays(t *testing.T) {
	want := `{"type":"header","exp":"kernel/gups","fp":"0ce1bebb0e8d1c6b"}
{"type":"cell","cell":1,"v":131072}
{"type":"cell","cell":2,"v":212473552}
{"type":"cell","v":2}
`
	file := filepath.Join(t.TempDir(), "gups.ckpt")
	dir := t.TempDir() + string(filepath.Separator)
	for _, tc := range []struct{ arg, path string }{
		{file, file},
		{dir, filepath.Join(dir, "gups.ckpt")},
	} {
		fresh := runOK(t, "-bench", "gups", "-checkpoint", tc.arg)
		if !strings.Contains(fresh, "bandwidth") {
			t.Fatalf("-checkpoint %s: output:\n%s", tc.arg, fresh)
		}
		got, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("-checkpoint %s: log:\n%s\nwant:\n%s", tc.arg, got, want)
		}

		var b strings.Builder
		if err := run([]string{"-bench", "gups", "-checkpoint", tc.arg}, &b); err == nil || !strings.Contains(err.Error(), "-resume") {
			t.Fatalf("-checkpoint %s: rerun without -resume: err = %v, output:\n%s", tc.arg, err, b.String())
		}
		replayed := runOK(t, "-bench", "gups", "-checkpoint", tc.arg, "-resume")
		if replayed != "(replayed from checkpoint "+tc.path+")\n"+fresh {
			t.Fatalf("-checkpoint %s: replayed output:\n%s\nfresh output:\n%s", tc.arg, replayed, fresh)
		}
		err = run([]string{"-bench", "gups", "-elems", "8192", "-checkpoint", tc.arg, "-resume"}, &b)
		if err == nil || !strings.Contains(err.Error(), "0ce1bebb0e8d1c6b") || !strings.Contains(err.Error(), "1b055b8ecf9b6efd") {
			t.Fatalf("-checkpoint %s: other workload: err = %v, want a refusal naming both fingerprints", tc.arg, err)
		}
		if after, _ := os.ReadFile(tc.path); string(after) != want {
			t.Fatalf("-checkpoint %s: a refused or replayed run changed the log:\n%s", tc.arg, after)
		}
	}
}

// TestRunWatchdogRecordsFailure: a 1 ns watchdog kills every attempt, the
// run prints the post-mortem, and the log keeps the header and one fail
// record counting both attempts.
func TestRunWatchdogRecordsFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gups.ckpt")
	var b strings.Builder
	if err := run([]string{"-bench", "gups", "-cell-timeout", "1ns", "-retries", "1", "-checkpoint", path}, &b); err == nil {
		t.Fatalf("a 1ns watchdog let the run finish:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "post-mortem: interrupted") {
		t.Fatalf("no post-mortem:\n%s", b.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 || lines[0] != `{"type":"header","exp":"kernel/gups","fp":"0ce1bebb0e8d1c6b"}` {
		t.Fatalf("log:\n%s", data)
	}
	var rec struct {
		Type string `json:"type"`
		Fail struct {
			Attempts int    `json:"attempts"`
			Kind     string `json:"kind"`
		} `json:"fail"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Type != "fail" || rec.Fail.Attempts != 2 || rec.Fail.Kind != "interrupted" {
		t.Fatalf("fail record: %s", lines[1])
	}
}

package jobserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emuchick/internal/chaos"
	"emuchick/internal/jobspec"
)

// The crash-restart fuzz harness. For each seed, the whole mixed workload
// runs against a chaos filesystem that kills itself at a seeded storage
// operation — freezing the directory exactly as a SIGKILL mid-write would —
// then a healthy server restarts on the survivors and the workload is
// resubmitted. The property under test: no crash point exists at which the
// final result bytes differ from an uninterrupted run, and no crash point
// leaves a corrupt journal line or panics the server. Content addressing is
// what makes the property checkable: resubmitting a spec either revives the
// surviving state (records re-enqueue, WALs replay, cache hits) or
// re-simulates from scratch, and both roads must end at identical bytes.

// chaosWorkload is the mixed fuzz workload: one checkpointed experiment
// sweep and one kernel measurement. Parallel 1 keeps the per-job storage-op
// schedule deterministic.
func chaosWorkload() []jobspec.Spec {
	exp := quickExperiment()
	exp.Parallel = 1
	return []jobspec.Spec{exp, quickKernel()}
}

// referenceResults runs the workload uninterrupted on a pristine server and
// returns fingerprint -> result bytes.
func referenceResults(t *testing.T) map[string][]byte {
	t.Helper()
	srv := newTestServer(t, Config{Workers: 1})
	defer srv.Close()
	out := map[string][]byte{}
	for _, spec := range chaosWorkload() {
		rec, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, srv, rec.ID); got.State != StateDone {
			t.Fatalf("reference job ended %s: %s", got.State, got.Error)
		}
		b, err := srv.ResultBytes(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		out[rec.Key] = b
	}
	return out
}

// workloadOps measures how many storage operations the full workload costs,
// bounding the seeded kill points.
func workloadOps(t *testing.T) int {
	t.Helper()
	fsys := chaos.New(chaos.Plan{}, nil)
	srv := newTestServer(t, Config{Workers: 1, FS: fsys})
	defer srv.Close()
	runWorkload(t, srv)
	ops := fsys.Ops()
	if ops < 4 {
		t.Fatalf("workload cost only %d storage ops", ops)
	}
	return ops
}

// runWorkload submits every spec and drives each submitted job to a
// terminal state. Submit and wait errors are tolerated — under injected
// faults both are legitimate outcomes — but every job that exists must
// still terminate rather than wedge.
func runWorkload(t *testing.T, srv *Server) {
	t.Helper()
	var ids []string
	for _, spec := range chaosWorkload() {
		rec, _ := srv.Submit(spec) // error ≠ lost: the record (if any) still terminates
		if rec.ID != "" {
			ids = append(ids, rec.ID)
		}
	}
	for _, id := range ids {
		waitTerminal(t, srv, id)
	}
}

// validateJournal asserts the no-corrupt-journal invariant on the raw file,
// independently of the store's replay: every newline-terminated line is a
// job record that parses and names its framed id, or a result that parses
// and carries its framed key. An unterminated tail is legal (it is the
// signature of a kill mid-append, dropped by replay and cut by the next
// append); a torn, foreign or unnamed complete line is not.
func validateJournal(t *testing.T, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		if os.IsNotExist(err) {
			return
		}
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, ln := range lines[:len(lines)-1] {
		kind, rest, _ := strings.Cut(ln, " ")
		name, payload, _ := strings.Cut(rest, " ")
		switch kind {
		case "job":
			var rec Job
			if err := json.Unmarshal([]byte(payload), &rec); err != nil {
				t.Fatalf("journal line %d: corrupt record for %s: %v", i+1, name, err)
			}
			if !jobIDForm.MatchString(name) || rec.ID != name {
				t.Fatalf("journal line %d: record %q framed as %q", i+1, rec.ID, name)
			}
		case "result":
			var res Result
			if err := json.Unmarshal([]byte(payload), &res); err != nil {
				t.Fatalf("journal line %d: corrupt cache entry %s: %v", i+1, name, err)
			}
			if res.Key != name {
				t.Fatalf("journal line %d: cache entry %s addressed as %q", i+1, name, res.Key)
			}
		default:
			t.Fatalf("journal line %d names nothing: %.80q", i+1, ln)
		}
	}
}

// TestChaosKillRestartFuzz is the acceptance property over arbitrary crash
// points: for every seed, kill the filesystem at a seeded storage op, then
// prove a restarted server answers the same workload with bytes identical
// to the uninterrupted run.
func TestChaosKillRestartFuzz(t *testing.T) {
	want := referenceResults(t)
	maxOp := workloadOps(t)
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			dir := t.TempDir()
			fsys := chaos.New(chaos.KillPlan(seed, maxOp), nil)
			srv := newTestServer(t, Config{DataDir: dir, Workers: 1, FS: fsys})
			runWorkload(t, srv)
			srv.Close()
			t.Logf("seed %d: killed at op %d (fired=%v, %d ops total)",
				seed, chaos.KillOp(seed, maxOp), fsys.Crashed(), fsys.Ops())

			// The frozen directory must already satisfy the journal invariant.
			validateJournal(t, dir)

			// Restart on the survivors with a healthy disk; resubmit the
			// workload and demand byte-identical answers.
			srv2 := newTestServer(t, Config{DataDir: dir, Workers: 1})
			defer srv2.Close()
			for _, spec := range chaosWorkload() {
				rec, err := srv2.Submit(spec)
				if err != nil {
					t.Fatalf("post-restart submit: %v", err)
				}
				if got := waitTerminal(t, srv2, rec.ID); got.State != StateDone {
					t.Fatalf("post-restart job ended %s: %s", got.State, got.Error)
				}
				got, err := srv2.ResultBytes(rec.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want[rec.Key], got) {
					t.Fatalf("crash at seeded op diverged for %s:\nwant: %s\ngot:  %s",
						rec.Key, want[rec.Key], got)
				}
			}
			validateJournal(t, dir)
		})
	}
}

// TestChaosFaultOutcomes drives the workload through persistently noisy
// storage — periodic torn writes, ENOSPC and sync failures — and checks the
// degradation contract: every job reaches a terminal state, every failure
// carries a structured error, the journal never holds a corrupt line,
// and a healthy restart serves the exact reference bytes.
func TestChaosFaultOutcomes(t *testing.T) {
	want := referenceResults(t)
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			fsys := chaos.New(chaos.NoisyPlan(seed, 5), nil)
			srv := newTestServer(t, Config{DataDir: dir, Workers: 1, FS: fsys})
			runWorkload(t, srv)
			if len(fsys.Injected()) == 0 {
				t.Fatal("noisy plan injected nothing")
			}
			for _, rec := range srv.List() {
				if !rec.State.terminal() {
					t.Fatalf("job %s wedged as %s under storage faults", rec.ID, rec.State)
				}
				if rec.State == StateFailed && rec.Error == "" {
					t.Fatalf("job %s failed without a structured error", rec.ID)
				}
			}
			srv.Close()
			validateJournal(t, dir)

			srv2 := newTestServer(t, Config{DataDir: dir, Workers: 1})
			defer srv2.Close()
			for _, spec := range chaosWorkload() {
				rec, err := srv2.Submit(spec)
				if err != nil {
					t.Fatalf("post-fault submit: %v", err)
				}
				if got := waitTerminal(t, srv2, rec.ID); got.State != StateDone {
					t.Fatalf("post-fault job ended %s: %s", got.State, got.Error)
				}
				got, err := srv2.ResultBytes(rec.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want[rec.Key], got) {
					t.Fatalf("faulty-disk run diverged for %s", rec.Key)
				}
			}
		})
	}
}

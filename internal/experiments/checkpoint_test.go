package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"emuchick/internal/fault"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/report"
	"emuchick/internal/sim"
)

// figuresToJSON marshals a figure set the same way figureBytes does, for
// comparing runs that need custom option plumbing.
func figuresToJSON(t *testing.T, figs []*metrics.Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, fig := range figs {
		if err := report.FigureJSON(&buf, fig); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// runFigureBytes runs an experiment with functional options and returns the
// FigureJSON bytes of every figure it produced.
func runFigureBytes(t *testing.T, id string, opts ...Option) []byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	figs, err := e.Run(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return figuresToJSON(t, figs)
}

// ckptFigureBytes is runFigureBytes with a checkpoint attached.
func ckptFigureBytes(t *testing.T, id, path string, extra ...Option) []byte {
	t.Helper()
	opts := append([]Option{WithScale(QuickScale), WithTrials(1), WithCheckpoint(path)}, extra...)
	return runFigureBytes(t, id, opts...)
}

// TestCheckpointCompleteRunIsByteIdentical pins the identity half of the
// contract: a checkpointed run writing a cold log, and a second run replaying
// the now complete log, must both match an uncheckpointed run byte for byte.
func TestCheckpointCompleteRunIsByteIdentical(t *testing.T) {
	base := figureBytes(t, "fig4", WithScale(QuickScale), WithTrials(1))
	path := filepath.Join(t.TempDir(), "fig4.ckpt")
	cold := ckptFigureBytes(t, "fig4", path)
	if !bytes.Equal(base, cold) {
		t.Fatalf("checkpointed run differs from plain run:\nbase: %s\nckpt: %s", base, cold)
	}
	warm := ckptFigureBytes(t, "fig4", path)
	if !bytes.Equal(base, warm) {
		t.Fatalf("replayed run differs from plain run:\nbase: %s\nwarm: %s", base, warm)
	}
}

// TestCheckpointResumeByteIdentical is the acceptance gate: a run cancelled
// after an arbitrary number of recorded cells and resumed from its
// checkpoint — at a different parallelism, with and without a fault plan —
// produces byte-identical figures to an uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	plan, err := fault.Parse("chan=4@2,migstall=10us/100us", 7)
	if err != nil {
		t.Fatal(err)
	}
	// Cut points are chosen so the interrupted run cannot finish before the
	// cancellation is observed: a worker checks the context before every new
	// cell, so at most cutAt+interP cells complete, and every quick sweep
	// here has at least 8 cells.
	cases := []struct {
		name    string
		id      string
		cutAt   int
		interP  int // parallelism of the interrupted run
		resumeP int // parallelism of the resumed run
		extra   []Option
	}{
		{"fig4-seq-to-par", "fig4", 3, 1, 8, nil},
		{"fig4-par-to-seq", "fig4", 2, 2, 1, nil},
		{"fig6-faulted", "fig6", 3, 2, 3, []Option{WithFaultPlan(plan)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runFigureBytes(t, tc.id,
				append([]Option{WithScale(QuickScale), WithTrials(1), WithParallel(tc.resumeP)}, tc.extra...)...)
			path := filepath.Join(t.TempDir(), tc.id+".ckpt")

			// Interrupted run: cancel the context once cutAt cells are in the
			// log — a deterministic stand-in for a kill at an arbitrary point.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hook := optionFunc(func(o *Options) {
				o.ckptHook = func(recorded int) {
					if recorded >= tc.cutAt {
						cancel()
					}
				}
			})
			e, err := ByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.Run(append([]Option{
				WithScale(QuickScale), WithTrials(1),
				WithParallel(tc.interP), WithCheckpoint(path), WithContext(ctx), hook,
			}, tc.extra...)...)
			if err == nil {
				t.Fatal("interrupted run reported success")
			}
			fi, err := os.Stat(path)
			if err != nil || fi.Size() == 0 {
				t.Fatalf("interrupted run left no checkpoint: %v", err)
			}

			// Resume at a different parallelism; figures must match the
			// uninterrupted baseline exactly.
			got := ckptFigureBytes(t, tc.id, path,
				append([]Option{WithParallel(tc.resumeP)}, tc.extra...)...)
			if !bytes.Equal(base, got) {
				t.Fatalf("resumed figures differ from uninterrupted run:\nbase: %s\ngot:  %s", base, got)
			}
		})
	}
}

// The fingerprint-mismatch refusal contract is covered field by field in
// fingerprint_class_test.go, driven by the OptionFields classification
// table rather than a hand-maintained in/out list.

// TestCheckpointTornTailTolerated: a kill mid-append leaves a partial final
// line; resume must drop it and recover every complete record.
func TestCheckpointTornTailTolerated(t *testing.T) {
	base := figureBytes(t, "fig4", WithScale(QuickScale), WithTrials(1))
	path := filepath.Join(t.TempDir(), "fig4.ckpt")
	ckptFigureBytes(t, "fig4", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the header and three full cell records, then splice in a torn
	// line as a kill mid-write would.
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 5 {
		t.Fatalf("checkpoint too small to truncate: %d lines", len(lines))
	}
	torn := append(bytes.Join(lines[:4], nil), []byte(`{"type":"cell","TORNMARKER`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got := ckptFigureBytes(t, "fig4", path)
	if !bytes.Equal(base, got) {
		t.Fatalf("resume from torn checkpoint differs:\nbase: %s\ngot:  %s", base, got)
	}
	// The torn line must be gone from the repaired log.
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(repaired, []byte("TORNMARKER")) {
		t.Fatal("torn partial line still present after resume")
	}
}

// TestCheckpointMidFileCorruptionRefused: garbage anywhere but the tail is
// not a crash artifact and must fail loudly instead of being skipped.
func TestCheckpointMidFileCorruptionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig4.ckpt")
	ckptFigureBytes(t, "fig4", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[1] = []byte("{garbage\n")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(WithScale(QuickScale), WithTrials(1), WithCheckpoint(path)); err == nil {
		t.Fatal("mid-file corruption was accepted")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCheckpointRecordsEveryCell: a checkpointed quick run of each
// experiment whose cells once bypassed the sweep runner records every one
// of its cells, and a second run over the finished log simulates none of
// them and reproduces the figures.
func TestCheckpointRecordsEveryCell(t *testing.T) {
	for _, tc := range []struct {
		id    string
		cells int
	}{
		{"stream-anchors", 3},
		{"migration-anchors", 3},
		{"scaling-nodes", 4},
		{"fig8", 2 + 2*len(chaseBlocks(true))}, // the two peaks, then both chase series at one trial
	} {
		path := filepath.Join(t.TempDir(), tc.id+".ckpt")
		recorded := 0
		hook := WithCheckpointHook(func(n int) { recorded = n })
		cold := ckptFigureBytes(t, tc.id, path, hook)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(data, []byte(`"type":"cell"`)); recorded != tc.cells || n != tc.cells {
			t.Errorf("%s: recorded %d cells, log holds %d; want %d", tc.id, recorded, n, tc.cells)
		}
		recorded = 0
		warm := ckptFigureBytes(t, tc.id, path, hook)
		if recorded != 0 {
			t.Errorf("%s: the run over a finished log simulated %d cells", tc.id, recorded)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s: replayed figures differ:\ncold: %s\nwarm: %s", tc.id, cold, warm)
		}
	}
}

// TestCheckpointRefusesPreLayoutLog: a log written before the fingerprint
// carried ckptLayout is refused, never replayed. The header is the one a
// quick fig8 run wrote then; that log's sweep 0 held chase cells, which
// would now replay as the STREAM peaks.
func TestCheckpointRefusesPreLayoutLog(t *testing.T) {
	const oldFP = "eddd8b42b18601c1"
	sum := sha256.Sum256([]byte("fig8;trials=3;quick=true;faultseed=0;"))
	if got := hex.EncodeToString(sum[:])[:16]; got != oldFP {
		t.Fatalf("the layout-free fingerprint of a quick fig8 run is %s, want %s", got, oldFP)
	}
	path := filepath.Join(t.TempDir(), "fig8.ckpt")
	log := `{"type":"header","exp":"fig8","fp":"` + oldFP + `"}` + "\n" +
		`{"type":"cell","v":0.16653303607136838}` + "\n"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := ByID("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(WithScale(QuickScale), WithCheckpoint(path)); err == nil {
		t.Fatal("a log written under the old cell layout was replayed")
	} else if !strings.Contains(err.Error(), oldFP) {
		t.Fatalf("refusal does not name the log's fingerprint: %v", err)
	}
}

// TestNaNCellIsAHoleNotARecord: a cell that returns NaN without an error —
// fig8's chase over a failed STREAM peak — is a hole with no log record, so
// a checkpointed sweep completes instead of failing to encode the NaN.
func TestNaNCellIsAHoleNotARecord(t *testing.T) {
	e := &Experiment{
		ID:    "test-nan",
		Title: "derived hole",
		Runner: func(o Options) ([]*metrics.Figure, error) {
			stats, err := sweep{series: 1, points: 2}.run(o, func(_ Options, _, pi, _ int) (float64, error) {
				if pi == 1 {
					return math.NaN(), nil
				}
				return 7, nil
			})
			if err != nil {
				return nil, err
			}
			fig := &metrics.Figure{ID: "test-nan", Title: "synthetic", XLabel: "x", YLabel: "y"}
			fig.Series = assemble([]string{"only"}, xsOf([]int{1, 2}), stats)
			return []*metrics.Figure{fig}, nil
		},
	}
	path := filepath.Join(t.TempDir(), "nan.ckpt")
	figs, err := e.Run(WithScale(QuickScale), WithTrials(1), WithCheckpoint(path))
	if err != nil {
		t.Fatalf("a NaN cell aborted the checkpointed sweep: %v", err)
	}
	if !figs[0].Incomplete || figs[0].Series[0].Points[1].Stats.Failed != 1 {
		t.Fatalf("NaN cell is not a hole: %+v", figs[0].Series[0].Points)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(`"type":"cell"`)); n != 1 {
		t.Fatalf("log holds %d cell records, want 1:\n%s", n, data)
	}
}

// script is a test proc body: its steps run in order, each issuing at most
// one blocking operation and returning that operation's parked result; the
// proc exits after its last step.
type script []func(p *sim.Proc) (parked bool)

func (s *script) StepProc(p *sim.Proc) {
	for len(*s) > 0 {
		op := (*s)[0]
		*s = (*s)[1:]
		if op(p) {
			return
		}
	}
	p.Exit()
}

// spinner sleeps one tick at a time forever.
type spinner struct{}

func (spinner) StepProc(p *sim.Proc) {
	for !p.SleepUntil(p.Now() + 1) {
	}
}

// deadlockExperiment builds an unregistered experiment whose sweep deadlocks
// on exactly one cell, so the failure path can be exercised hermetically.
func deadlockExperiment() *Experiment {
	return &Experiment{
		ID:    "test-deadlock",
		Title: "synthetic deadlock",
		Runner: func(o Options) ([]*metrics.Figure, error) {
			stats, err := sweep{series: 1, points: 3}.run(o, func(o Options, _, pi, _ int) (float64, error) {
				if pi == 1 {
					eng := sim.NewEngine()
					sem := sim.NewSemaphore(eng, "slots", 1)
					eng.SpawnContAt(0, "holder", &script{sem.AcquireCont, func(p *sim.Proc) bool {
						p.Suspend("hold-forever") // never unparked
						return true
					}})
					eng.SpawnContAt(0, "blocked", &script{
						func(p *sim.Proc) bool { return p.SleepUntil(5) },
						sem.AcquireCont,
					})
					if err := eng.Run(); err != nil {
						return 0, err
					}
					return 0, nil
				}
				return float64(10 * (pi + 1)), nil
			})
			if err != nil {
				return nil, err
			}
			fig := &metrics.Figure{ID: "test-deadlock", Title: "synthetic", XLabel: "x", YLabel: "y"}
			fig.Series = assemble([]string{"only"}, xsOf([]int{1, 2, 3}), stats)
			return []*metrics.Figure{fig}, nil
		},
	}
}

// TestDeadlockedCellRecordsFailureAndCompletes is the second acceptance
// gate: a cell whose simulation deadlocks must surface the sim.RunError in
// the checkpoint failure record — naming the parked procs — while the sweep
// completes the remaining cells and marks the figure Incomplete.
func TestDeadlockedCellRecordsFailureAndCompletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deadlock.ckpt")
	e := deadlockExperiment()
	figs, err := e.Run(WithScale(QuickScale), WithTrials(1), WithCheckpoint(path))
	if err != nil {
		t.Fatalf("sweep aborted instead of completing around the dead cell: %v", err)
	}
	if len(figs) != 1 || !figs[0].Incomplete {
		t.Fatalf("figure not marked Incomplete: %+v", figs[0])
	}
	pts := figs[0].Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	if pts[0].Stats.Mean != 10 || pts[2].Stats.Mean != 30 {
		t.Fatalf("healthy cells wrong: %+v", pts)
	}
	if !math.IsNaN(pts[1].Stats.Mean) || pts[1].Stats.N != 0 || pts[1].Stats.Failed != 1 {
		t.Fatalf("dead cell is not a NaN hole: %+v", pts[1].Stats)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"type":"fail"`, `"kind":"deadlock"`, "holder", "blocked", `"site":"slots"`} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("checkpoint failure record missing %q:\n%s", frag, data)
		}
	}

	// Resume re-runs the failed cell (same deadlock) but replays the healthy
	// ones; the assembled figure is unchanged.
	figs2, err := e.Run(WithScale(QuickScale), WithTrials(1), WithCheckpoint(path))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(figuresToJSON(t, figs), figuresToJSON(t, figs2)) {
		t.Fatal("resumed incomplete figure differs")
	}
}

// TestWatchdogKillsStuckCellAfterRetries: a cell that exceeds the wall-clock
// deadline on every attempt is retried the configured number of times, then
// recorded as failed (kind "interrupted") without aborting the sweep.
func TestWatchdogKillsStuckCellAfterRetries(t *testing.T) {
	attempts := 0
	e := &Experiment{
		ID:    "test-watchdog",
		Title: "synthetic hang",
		Runner: func(o Options) ([]*metrics.Figure, error) {
			stats, err := sweep{series: 1, points: 2}.run(o, func(o Options, _, pi, _ int) (float64, error) {
				if pi == 1 {
					attempts++
					// An endlessly self-rescheduling proc: only the watchdog's
					// deadline (via Interrupt) ends this engine.
					eng := sim.NewEngine()
					eng.Interrupt = o.ctx.Err
					eng.SpawnContAt(0, "spinner", spinner{})
					if err := eng.Run(); err != nil {
						return 0, err
					}
					return 0, nil
				}
				return 42, nil
			})
			if err != nil {
				return nil, err
			}
			fig := &metrics.Figure{ID: "test-watchdog", Title: "synthetic", XLabel: "x", YLabel: "y"}
			fig.Series = assemble([]string{"only"}, xsOf([]int{1, 2}), stats)
			return []*metrics.Figure{fig}, nil
		},
	}
	path := filepath.Join(t.TempDir(), "watchdog.ckpt")
	figs, err := e.Run(WithScale(QuickScale), WithTrials(1), WithParallel(1),
		WithCellTimeout(50*time.Millisecond), WithRetries(2), WithCheckpoint(path))
	if err != nil {
		t.Fatalf("watchdog failure aborted the sweep: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("stuck cell ran %d attempts, want 3 (1 + 2 retries)", attempts)
	}
	if !figs[0].Incomplete {
		t.Fatal("figure not marked Incomplete after watchdog kill")
	}
	if !math.IsNaN(figs[0].Series[0].Points[1].Stats.Mean) {
		t.Fatalf("killed cell not a hole: %+v", figs[0].Series[0].Points[1].Stats)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"type":"fail"`, `"kind":"interrupted"`, `"attempts":3`, "spinner"} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("failure record missing %q:\n%s", frag, data)
		}
	}
}

// TestWatchdogThreadsBudgetIntoKernelOptions pins the deterministic half of
// the watchdog: arming CellTimeout also sets the scale-derived event budget,
// and KernelOptions forwards both into each cell's simulation.
func TestWatchdogThreadsBudgetIntoKernelOptions(t *testing.T) {
	var o Options
	o.CellTimeout = time.Second
	ao, cancel := o.withWatchdog()
	defer cancel()
	if ao.maxEvents != eventBudget(false) {
		t.Fatalf("maxEvents = %d, want %d", ao.maxEvents, eventBudget(false))
	}
	if ao.ctx == nil {
		t.Fatal("watchdog did not install a deadline context")
	}
	if ks := ao.KernelOptions(); len(ks) != 2 {
		t.Fatalf("KernelOptions forwarded %d options, want 2 (context + budget)", len(ks))
	}
	if xs := ao.xeonOptions(); len(xs) != 2 {
		t.Fatalf("xeonOptions forwarded %d options, want 2 (context + budget)", len(xs))
	}
	if xs := o.xeonOptions(); xs != nil {
		t.Fatalf("an unwatched cell forwards %d Xeon options, want none", len(xs))
	}
	o.Quick = true
	aq, cancel2 := o.withWatchdog()
	defer cancel2()
	if aq.maxEvents != eventBudget(true) {
		t.Fatalf("quick maxEvents = %d, want %d", aq.maxEvents, eventBudget(true))
	}
}

// tinyBudget is an event budget no simulated cell can meet: every cell that
// honours it dies deterministically at its first event.
var tinyBudget = optionFunc(func(o *Options) { o.maxEvents = 1 })

// TestXeonCellsHonourTheEventBudget: every figure with a Xeon cell runs it
// under the cell's event budget, so a budget no cell can meet leaves every
// measured point a hole. Before the Xeon kernels took run options, the
// Sandy Bridge and Haswell cells ran to completion whatever the budget.
func TestXeonCellsHonourTheEventBudget(t *testing.T) {
	for _, id := range []string{"stream-anchors", "fig7", "fig8", "fig9b", "ablation-grain",
		"supplement-shuffle-modes", "supplement-vb-metric"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		figs, err := e.Run(WithScale(QuickScale), WithTrials(1), tinyBudget)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, f := range figs {
			for _, s := range f.Series {
				if s.Name == "paper" {
					continue // the paper's published values, not a simulation
				}
				for _, p := range s.Points {
					if p.Stats.N != 0 {
						t.Errorf("%s/%s at x=%v: %d cells ran past a 1-event budget", f.ID, s.Name, p.X, p.Stats.N)
					}
				}
			}
		}
	}
}

// TestFig8SkipsChaseCellsOverAFailedPeak: a chase cell whose STREAM peak is
// a hole is a hole too, and is never simulated. With both peaks dead, the
// log holds their two fail records and nothing else; before this, every
// Emu chase cell was simulated (and failed on the budget) and every Sandy
// Bridge cell ran to completion.
func TestFig8SkipsChaseCellsOverAFailedPeak(t *testing.T) {
	e, err := ByID("fig8")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig8.ckpt")
	figs, err := e.Run(WithScale(QuickScale), WithTrials(1), WithCheckpoint(path), tinyBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range figs[0].Series {
		for _, p := range s.Points {
			if p.Stats.N != 0 || p.Stats.Failed != 1 {
				t.Errorf("%s at x=%v: %+v, want a hole", s.Name, p.X, p.Stats)
			}
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fails, cells := bytes.Count(data, []byte(`"type":"fail"`)), bytes.Count(data, []byte(`"type":"cell"`))
	if fails != 2 || cells != 0 {
		t.Fatalf("log holds %d fail and %d cell records, want the two peaks' fail records only:\n%s", fails, cells, data)
	}
}

// TestRecordReplayMeasurement covers the kernel log scheme through
// Measure: a log holding values but no count marker (the torn signature of
// a kill mid-append) is measured afresh, a complete one replays with zero
// attempts, and another key, or none, is refused.
func TestRecordReplayMeasurement(t *testing.T) {
	k, cfg, p := smallGUPS(t)
	direct, err := k.Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gups.ckpt")
	torn := `{"type":"header","exp":"kernel/gups","fp":"key1"}` + "\n" +
		`{"type":"cell","cell":1,"v":123}` + "\n" + `{"type":"cell","cell":2,"v":456}` + "\n"
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{1, 0} {
		m, attempts, err := Measure(k, cfg, p, "key1", WithCheckpoint(path))
		if err != nil {
			t.Fatal(err)
		}
		if attempts != want {
			t.Fatalf("attempts = %d, want %d: a log without its count marker must not replay", attempts, want)
		}
		if m.Kernel != "gups" || !slices.Equal(m.Values, direct.Values) {
			t.Fatalf("measured %+v, want the values %v", m, direct.Values)
		}
	}
	for _, key := range []string{"key2", ""} {
		if _, _, err := Measure(k, cfg, p, key, WithCheckpoint(path)); err == nil {
			t.Errorf("key %q: the log was accepted", key)
		}
	}
}

// TestMeasureWatchdog: a 1 ns cell timeout kills every attempt; one retry
// makes two attempts, and a negative retry count means none.
func TestMeasureWatchdog(t *testing.T) {
	k, cfg, p := smallGUPS(t)
	for _, tc := range []struct{ retries, want int }{{1, 2}, {-1, 1}} {
		_, attempts, err := Measure(k, cfg, p, "", WithCellTimeout(time.Nanosecond), WithRetries(tc.retries))
		if attempts != tc.want || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("retries %d: (attempts %d, %v), want %d attempts and a deadline error", tc.retries, attempts, err, tc.want)
		}
	}
}

// smallGUPS is a GUPS measurement small enough to run in microseconds.
func smallGUPS(t *testing.T) (kernels.Kernel, machine.Config, kernels.Params) {
	t.Helper()
	k, err := kernels.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	p := kernels.DefaultParams()
	p.Elems, p.Updates, p.Threads = 64, 256, 8
	return k, machine.HardwareChick(), p
}

// checkpointOracle spells out, record by record, what openCheckpoint must
// make of data for experiment exp and fingerprint fp: the Lookup hits, or
// false for a log it must refuse. Records end in a newline, so an
// unterminated remainder is a torn tail; so is an unparseable line with
// nothing but whitespace after it. Any other unparseable line, a first
// record that is not a header, or a header for another run is a refusal.
func checkpointOracle(data []byte, exp, fp string) (map[ckptKey]float64, bool) {
	hits := map[ckptKey]float64{}
	headed := false
	lines := bytes.SplitAfter(data, []byte("\n"))
	for i, l := range lines {
		if !bytes.HasSuffix(l, []byte("\n")) {
			break
		}
		raw := bytes.TrimSpace(l)
		if len(raw) == 0 {
			continue
		}
		var rec ckptRecord
		if json.Unmarshal(raw, &rec) != nil {
			if len(bytes.TrimSpace(bytes.Join(lines[i+1:], nil))) == 0 {
				break
			}
			return nil, false
		}
		switch {
		case rec.Type == "header" && (rec.Exp != exp || rec.FP != fp), !headed && rec.Type != "header":
			return nil, false
		case rec.Type == "header":
			headed = true
		case rec.Type == "cell" && rec.V != nil:
			hits[ckptKey{rec.Sweep, rec.Cell}] = *rec.V
		}
	}
	return hits, true
}

// checkHits requires ck's Lookup hits to be exactly want.
func checkHits(t *testing.T, ck *checkpoint, want map[ckptKey]float64) {
	t.Helper()
	if got := ck.Completed(); got != len(want) {
		t.Fatalf("log replays %d cells, want %d", got, len(want))
	}
	for k, v := range want {
		if got, ok := ck.Lookup(k.sweep, k.cell); !ok || math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("Lookup(%d, %d) = %v, %v; want %v", k.sweep, k.cell, got, ok, v)
		}
	}
}

// FuzzOpenCheckpoint opens arbitrary bytes as fig4's log. Opening never
// panics; a refused log is left byte-unchanged; an opened log replays
// exactly the valued cell records that follow a matching header, minus a
// torn tail (checkpointOracle); and a cell recorded after the replay is
// replayed by the next open, so the repaired log stays well formed.
func FuzzOpenCheckpoint(f *testing.F) {
	const exp, fp = "fig4", "0123456789abcdef"
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fig4.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, ok := checkpointOracle(data, exp, fp)
		ck, err := openCheckpoint(nil, path, exp, fp)
		if err != nil {
			if ok {
				t.Fatalf("refused a log it should replay: %v", err)
			}
			if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("refusal changed the log: %q -> %q (%v)", data, got, rerr)
			}
			return
		}
		if !ok {
			ck.Close()
			t.Fatalf("opened a log it should refuse: %q", data)
		}
		checkHits(t, ck, want)
		if err := ck.Record(7, 7, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		want[ckptKey{7, 7}] = 0.5
		ck, err = openCheckpoint(nil, path, exp, fp)
		if err != nil {
			t.Fatalf("reopening after an append: %v", err)
		}
		defer ck.Close()
		checkHits(t, ck, want)
	})
}

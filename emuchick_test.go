package emuchick

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// script is a test thread body: its functions run in order, each issuing
// at most one operation and returning that operation's parked result. A
// function reads the previous operation's result through Value.
type script []func(t *Thread) bool

func (s *script) Step(t *Thread) bool {
	for len(*s) > 0 {
		op := (*s)[0]
		*s = (*s)[1:]
		if op(t) {
			return false
		}
	}
	return true
}

// drives is a test thread body that runs each spawn tree to completion, in
// order.
type drives []Driver

func (d *drives) Step(t *Thread) bool {
	for len(*d) > 0 {
		if (*d)[0].Drive(t) {
			return false
		}
		*d = (*d)[1:]
	}
	return true
}

func TestFacadeQuickstart(t *testing.T) {
	sys := NewSystem(HardwareChick())
	arr := sys.Mem.AllocStriped(64)
	for i := 0; i < 64; i++ {
		sys.Mem.Write(arr.At(i), uint64(i))
	}
	var sum uint64
	body := make(script, 0, 65)
	for i := 0; i < 64; i++ {
		body = append(body, func(th *Thread) bool {
			sum += th.Value() // the previous load's word; zero before the first
			return th.CLoad(arr.At(i))
		})
	}
	body = append(body, func(th *Thread) bool { sum += th.Value(); return false })
	elapsed, err := sys.Run(&body)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 64*63/2 {
		t.Fatalf("sum = %d", sum)
	}
	if elapsed <= 0 {
		t.Fatal("no time elapsed")
	}
	// Walking a striped array migrates between nodelets.
	if sys.Counters.TotalMigrations() == 0 {
		t.Fatal("no migrations recorded")
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	for _, c := range []struct {
		kernel string
		p      KernelParams
	}{
		{"stream", KernelParams{Elems: 32, Nodelets: 8, Threads: 8, Strategy: SerialRemoteSpawn.String()}},
		{"chase", KernelParams{Elems: 128, Block: 4, Mode: FullBlockShuffle.String(), Seed: 1, Threads: 4, Nodelets: 8}},
		{"spmv", KernelParams{GridN: 4, Layout: SpMV2D.String(), Grain: 16}},
		{"pingpong", KernelParams{Threads: 2, Iters: 10, NodeletA: 0, NodeletB: 1}},
		{"gups", KernelParams{Elems: 64, Updates: 128, Threads: 4, Seed: 2}},
	} {
		if _, err := Run(HardwareChick(), c.kernel, c.p); err != nil {
			t.Fatal(err)
		}
	}
	// Run takes the sweep's watchdog, and refuses a log it cannot key.
	gups := KernelParams{Elems: 64, Updates: 128, Threads: 4, Seed: 2}
	if _, err := Run(HardwareChick(), "gups", gups, WithCellTimeout(time.Nanosecond), WithRetries(0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a 1ns watchdog: err = %v, want a deadline error", err)
	}
	if _, err := Run(HardwareChick(), "gups", gups, WithCheckpoint(filepath.Join(t.TempDir(), "gups.ckpt"))); err == nil {
		t.Fatal("Run accepted a checkpoint")
	}
}

func TestFacadeHelpers(t *testing.T) {
	sys := NewSystem(HardwareChick())
	hits := make([]int, 20)
	loop := NewParallelFor(20, 4, func(lo, hi int) Body {
		return &script{func(*Thread) bool {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
			return false
		}}
	})
	workers := NewWorkers(8, 8, RecursiveRemoteSpawn, func(int) Body {
		return &script{func(w *Thread) bool { return w.CCompute(10) }}
	})
	if _, err := sys.Run(&drives{loop, workers}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d ran %d times", i, h)
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	if len(Experiments()) != len(ids) {
		t.Fatal("Experiments/ExperimentIDs mismatch")
	}
	e, err := ExperimentByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	figs, err := e.Run(WithScale(QuickScale), WithTrials(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) == 0 || len(figs[0].Series) == 0 {
		t.Fatal("fig4 produced nothing")
	}
	if _, err := ExperimentByID("bogus"); err == nil {
		t.Fatal("bogus experiment accepted")
	}
}

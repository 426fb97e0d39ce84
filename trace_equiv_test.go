package emuchick

// The observability layer's central contract: attaching an observer never
// perturbs the simulation. These tests pin it at both layers — a full
// experiment's figures must be byte-identical with and without a tracer,
// and a machine-level run must produce the same elapsed time and the same
// per-nodelet counters while an observer watches every event.

import (
	"bytes"
	"reflect"
	"testing"

	"emuchick/internal/experiments"
	"emuchick/internal/machine"
	"emuchick/internal/report"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

func fig4Figures(t *testing.T, opts ...experiments.Option) []byte {
	t.Helper()
	e, err := experiments.ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	figs, err := e.Run(append([]experiments.Option{
		experiments.WithScale(experiments.QuickScale), experiments.WithTrials(1),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, fig := range figs {
		if err := report.FigureJSON(&buf, fig); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestTracedFiguresBitIdentical is the golden test: a traced fig4 run must
// produce byte-for-byte the same figures as an untraced one.
func TestTracedFiguresBitIdentical(t *testing.T) {
	base := fig4Figures(t)

	w := NewChromeWriter(1 << 14)
	agg := NewTraceAggregator(0)
	traced := fig4Figures(t, WithObserver(TeeObservers(w, agg)))

	if !bytes.Equal(base, traced) {
		t.Fatalf("traced figures differ from untraced:\nuntraced: %s\ntraced:   %s", base, traced)
	}
	// The tracer must actually have observed the runs it didn't perturb.
	if w.Len() == 0 || w.Runs() == 0 {
		t.Fatalf("observer saw nothing: %d events over %d runs", w.Len(), w.Runs())
	}
	if agg.TotalWords() == 0 {
		t.Fatal("aggregator accumulated no memory traffic")
	}
}

// tracedChase runs one migration-heavy kernel on a fresh machine and
// returns its elapsed time and end-of-run counters.
func tracedChase(t *testing.T, obs Observer) (Time, []machine.NodeletCounters) {
	t.Helper()
	sys := NewSystem(HardwareChick())
	if obs != nil {
		sys.Attach(obs)
		sys.SampleEvery(100 * sim.Nanosecond)
	}
	arr := sys.Mem.AllocStriped(1 << 10)
	workers := NewWorkers(8, 32, RecursiveRemoteSpawn, func(id int) Body {
		var sc script
		for i := id; i < arr.Len(); i += 32 {
			sc = append(sc,
				func(w *Thread) bool { return w.CLoad(arr.At(i)) },
				func(w *Thread) bool { return w.CStore(arr.At(i), w.Value()+1) })
		}
		return &sc
	})
	elapsed, err := sys.Run(&drives{workers})
	if err != nil {
		t.Fatal(err)
	}
	return elapsed, sys.Counters.Snapshot()
}

// TestTracedCountersAndTimeIdentical pins the machine layer: elapsed time
// and every per-nodelet counter match with and without an observer, even
// with gauge sampling at a deliberately aggressive interval.
func TestTracedCountersAndTimeIdentical(t *testing.T) {
	baseElapsed, baseCounters := tracedChase(t, nil)

	var events, samples int
	obs := trace.FuncObserver{
		OnEvent:  func(trace.Event) { events++ },
		OnSample: func(trace.Sample) { samples++ },
	}
	tracedElapsed, tracedCounters := tracedChase(t, obs)

	if baseElapsed != tracedElapsed {
		t.Fatalf("observer moved simulated time: %v vs %v", baseElapsed, tracedElapsed)
	}
	if !reflect.DeepEqual(baseCounters, tracedCounters) {
		t.Fatalf("observer changed counters:\nuntraced: %+v\ntraced:   %+v", baseCounters, tracedCounters)
	}
	if events == 0 || samples == 0 {
		t.Fatalf("observer saw %d events and %d samples, want both > 0", events, samples)
	}
}

// TestUntracedOptionsAllocationFree guards the fast path feeding the
// kernels: with nothing to forward, KernelOptions must return a nil slice
// without allocating.
func TestUntracedOptionsAllocationFree(t *testing.T) {
	o := experiments.ApplyOptions(experiments.WithTrials(3))
	if ks := o.KernelOptions(); ks != nil {
		t.Fatalf("untraced options produced %d kernel options, want none", len(ks))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if (experiments.Options{Quick: true}).KernelOptions() != nil {
			t.Fatal("unexpected kernel options")
		}
	})
	if allocs != 0 {
		t.Fatalf("KernelOptions allocates %.1f times on the untraced path", allocs)
	}
}

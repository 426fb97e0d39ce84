package sim

import (
	"slices"
	"testing"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired = %d", e.Fired())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(5, func() {
		hits = append(hits, e.Now())
		e.After(7, func() { hits = append(hits, e.Now()) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 12 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineMaxEvents(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 100
	var tick func()
	tick = func() { e.After(1, tick) }
	e.Schedule(0, tick)
	if err := e.Run(); err == nil {
		t.Fatal("runaway loop not caught by MaxEvents")
	}
}

func TestEngineMaxTime(t *testing.T) {
	e := NewEngine()
	e.MaxTime = 50
	var tick func()
	tick = func() { e.After(10, tick) }
	e.Schedule(0, tick)
	if err := e.Run(); err == nil {
		t.Fatal("runaway loop not caught by MaxTime")
	}
	if e.Now() > 50 {
		t.Fatalf("engine ran past MaxTime: %v", e.Now())
	}
}

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 || e.Fired() != 0 {
		t.Fatal("empty run changed state")
	}
}

// Same-time events scheduled from inside an event join the queue after the
// earlier same-time entries a split has already moved into the bucket due
// now; the FIFO append must still deliver everything in scheduling order.
func TestEngineTieBreakAcrossHeapAndLane(t *testing.T) {
	e := NewEngine()
	var order []int
	// Seeded ahead of time, before the first split.
	e.Schedule(100, func() {
		order = append(order, 0)
		// Scheduled at now: these queue behind two entries for t=100 that
		// were scheduled earlier. They must fire after them.
		e.Schedule(100, func() { order = append(order, 3) })
		e.Schedule(100, func() {
			order = append(order, 4)
			e.Schedule(100, func() { order = append(order, 5) })
		})
	})
	e.Schedule(100, func() { order = append(order, 1) })
	e.Schedule(100, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if i >= len(order) || order[i] != i {
			t.Fatalf("same-time tie order = %v, want 0..5", order)
		}
	}
}

// Events scheduled at now from inside an event must all fire before time
// advances, even with a later event already pending.
func TestEngineLaneDrainsBeforeTimeAdvances(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(10, func() {
		order = append(order, "t10-a")
		e.Schedule(10, func() { order = append(order, "t10-lane") })
	})
	e.Schedule(20, func() { order = append(order, "t20") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"t10-a", "t10-lane", "t20"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A large interleaved stress mix: scattered timestamps seeded up front plus
// same-time chains scheduled inside events. Two runs must fire identical
// (time, index) traces, and each must pass the FuzzEngineOrder checker:
// time order, ties in scheduling order.
func TestEngineHeapLaneStressDeterminism(t *testing.T) {
	run := func() []stamp {
		l := &orderLog{e: NewEngine()}
		var chain func(depth int)
		chain = func(depth int) {
			if depth > 0 {
				l.schedule(l.e.Now(), func() { chain(depth - 1) })
			}
		}
		for i := 0; i < 200; i++ {
			d := Time((i * 2654435761) % 37)
			depth := i % 4
			l.schedule(d, func() { chain(depth) })
		}
		if err := l.e.Run(); err != nil {
			t.Fatal(err)
		}
		checkOrder(t, l)
		return l.fired
	}
	a, b := run(), run()
	if !slices.Equal(a, b) {
		t.Fatal("two identical runs fired different traces")
	}
}

// Determinism: two identical runs must visit identical (time, value) traces.
func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var trace []Time
		for i := 0; i < 50; i++ {
			d := Time((i * 7919) % 101)
			e.Schedule(d, func() { trace = append(trace, e.Now()) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEventLoopAllocsFlat: the hold model's event loop allocates nothing
// per event. It drives schedule, the radix queue's push, pop and split,
// and advance.
func TestEventLoopAllocsFlat(t *testing.T) {
	allocsFlat(t, "the hold model's event loop", 1024, func(firings int) {
		if _, err := runHold(64, firings); err != nil {
			t.Fatal(err)
		}
	})
}

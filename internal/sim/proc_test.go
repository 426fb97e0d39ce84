package sim

import "testing"

func TestProcDelayAdvancesTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Go("p", delay(100), do(func(p *Proc) { at = p.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Fatalf("proc resumed at %v, want 100", at)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", e.LiveProcs())
	}
}

func TestProcWaitUntilPastIsNoop(t *testing.T) {
	e := NewEngine()
	e.Go("p", delay(50), func(p *Proc) bool {
		if p.SleepUntil(10) { // already past; must not park or rewind
			t.Error("sleep into the past parked")
			return true
		}
		if p.Now() != 50 {
			t.Errorf("Now = %v, want 50", p.Now())
		}
		return false
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	e := NewEngine()
	var trace []string
	for _, name := range []string{"a", "b"} {
		e.Go(name, times(3, do(func(*Proc) { trace = append(trace, name) }), delay(10))...)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestGoAt(t *testing.T) {
	e := NewEngine()
	var at Time
	e.GoAt(42, "late", do(func(p *Proc) { at = p.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 42 {
		t.Fatalf("started at %v, want 42", at)
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine()
	var waiter *Proc
	var resumedAt Time
	e.Go("waiter", do(func(p *Proc) { waiter = p }), park("park"),
		do(func(p *Proc) { resumedAt = p.Now() }))
	e.Go("waker", delay(200), do(func(*Proc) { waiter.Unpark() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedAt != 200 {
		t.Fatalf("resumed at %v, want 200", resumedAt)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", park("no-waker"))
	if err := e.Run(); err == nil {
		t.Fatal("parked-forever proc not reported as deadlock")
	}
}

func TestProcSpawnsProc(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Go("parent", delay(5), do(func(*Proc) {
		e.Go("child", delay(5), do(func(c *Proc) { childAt = c.Now() }))
	}), delay(100))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 10 {
		t.Fatalf("child finished at %v, want 10", childAt)
	}
}

// TestProcAccessorsAndUnparkAt checks the accessors and a timed wake: a
// parked proc resumed by an Unpark scheduled for a later time.
func TestProcAccessorsAndUnparkAt(t *testing.T) {
	e := NewEngine()
	var waiter *Proc
	var resumedAt Time
	e.Go("sleeper", do(func(p *Proc) {
		if p.Name() != "sleeper" || p.Engine() != e {
			t.Error("accessors wrong")
		}
		waiter = p
	}), park("timed-sleep"), do(func(p *Proc) { resumedAt = p.Now() }))
	e.Go("waker", do(func(*Proc) { e.Schedule(500, waiter.Unpark) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedAt != 500 {
		t.Fatalf("timed Unpark resumed at %v", resumedAt)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestManyProcs(t *testing.T) {
	e := NewEngine()
	const n = 2000
	var finished int
	for i := 0; i < n; i++ {
		e.Go("w", delay(Time(i%37)), do(func(*Proc) { finished++ }))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != n {
		t.Fatalf("finished = %d, want %d", finished, n)
	}
}

// TestFastForwardAllocsFlat: a lone proc's SleepUntil hops, each a
// fastForward over the queue's peek, allocate nothing per hop.
func TestFastForwardAllocsFlat(t *testing.T) {
	e, h := NewEngine(), &hopper{}
	allocsFlat(t, "SleepUntil's fast-forward", 64, func(hops int) {
		if err := h.run(e, hops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSpawnAllocsFlat: spawning short-lived procs one after another
// recycles each through the proc pool (SpawnContAt, acquireProc, register,
// Exit), so the spawns allocate nothing per proc.
func TestSpawnAllocsFlat(t *testing.T) {
	e, s := NewEngine(), &spawner{}
	allocsFlat(t, "a pooled spawn", 64, func(children int) {
		if err := s.run(e, children); err != nil {
			t.Fatal(err)
		}
	})
}

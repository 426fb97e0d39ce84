package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// failDeadlock builds an engine whose run deadlocks with procs parked at
// several distinct sites: a bare park, a semaphore wait, and a join wait.
func failDeadlock() *Engine {
	e := NewEngine()
	sem := NewSemaphore(e, "slots", 1)
	j := NewJoin(1)
	e.Go("holder", sem.AcquireCont, park("never")) // holds the slot forever
	e.Go("sem-waiter", delay(1), sem.AcquireCont)
	e.Go("join-waiter", j.WaitCont)
	return e
}

// spinner sleeps d ticks at a time forever; only a valve or the interrupt
// hook ends a run that contains one.
type spinner Time

func (d spinner) StepProc(p *Proc) {
	for !p.SleepUntil(p.Now() + Time(d)) {
	}
}

// failMaxEvents builds an engine whose run trips the MaxEvents valve while
// two procs ping-pong, leaving both parked mid-body.
func failMaxEvents() *Engine {
	e := NewEngine()
	e.MaxEvents = 64
	for i := 0; i < 2; i++ {
		e.SpawnContAt(0, "spinner", spinner(1))
	}
	return e
}

// failInterrupted builds an engine whose Interrupt hook fires on its first
// poll, aborting the run with procs live.
func failInterrupted() *Engine {
	e := NewEngine()
	cause := errors.New("cancelled")
	e.Interrupt = func() error { return cause }
	for i := 0; i < 3; i++ {
		e.SpawnContAt(0, "worker", spinner(1))
	}
	return e
}

// TestFailedRunsReleaseParkedGoroutines is the leak regression test: across
// many failing runs of every failure kind, the process goroutine count must
// stay at its baseline and every engine must end with no live procs. Procs
// used to be goroutines, and every one parked mid-body when a run failed
// stayed blocked forever; in a long-lived job server those leaked
// goroutines accumulated with every watchdog-killed, cancelled, or
// deadlocked job. The engine now runs every proc on the Run goroutine.
func TestFailedRunsReleaseParkedGoroutines(t *testing.T) {
	// Let goroutines from other tests settle before taking the baseline.
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	builders := []func() *Engine{failDeadlock, failMaxEvents, failInterrupted}
	const rounds = 40
	for i := 0; i < rounds; i++ {
		for _, build := range builders {
			e := build()
			if err := e.Run(); err == nil {
				t.Fatal("expected the run to fail")
			}
			if e.LiveProcs() != 0 || e.Pending() != 0 {
				t.Fatalf("failed run left procs=%d pending=%d", e.LiveProcs(), e.Pending())
			}
		}
	}

	// Goroutines from other tests may still be unwinding; poll briefly
	// before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across failing runs: baseline %d, now %d", baseline, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEngineReuseAfterFailure: an engine whose run failed must be clean for
// reuse — no stale live-proc count, no un-fired events, no failure-registry
// carryover — so a second, well-formed run succeeds and reports only its own
// procs on a subsequent failure.
func TestEngineReuseAfterFailure(t *testing.T) {
	e := failDeadlock()
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs after failed run = %d, want 0", e.LiveProcs())
	}
	if e.Pending() != 0 {
		t.Fatalf("pending events after failed run = %d, want 0", e.Pending())
	}

	// A clean run on the reused engine must succeed.
	var at Time
	e.Go("ok", delay(10), do(func(p *Proc) { at = p.Now() }))
	if err := e.Run(); err != nil {
		t.Fatalf("reused engine failed a clean run: %v", err)
	}
	if want := e.Now(); at != want {
		t.Fatalf("reused run resumed at %v, want %v (time stays monotonic)", at, want)
	}

	// A third run that fails must dump only its own procs, not ghosts from
	// the first failure.
	e.Go("fresh-stuck", park("again"))
	err := e.Run()
	re, ok := err.(*RunError)
	if !ok {
		t.Fatalf("Run() = %v, want *RunError", err)
	}
	if len(re.Parked) != 1 || re.Parked[0].Name != "fresh-stuck" {
		t.Fatalf("failure dump carries stale procs: %+v", re.Parked)
	}
}

// TestEngineReuseAfterSuccess: back-to-back successful runs on one engine,
// with the clock staying monotonic across them.
func TestEngineReuseAfterSuccess(t *testing.T) {
	e := NewEngine()
	e.Go("a", delay(100))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	firstNow := e.Now()
	if firstNow != 100 {
		t.Fatalf("first run ended at %v, want 100", firstNow)
	}
	var at Time
	e.Go("b", delay(50), do(func(p *Proc) { at = p.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != firstNow+50 {
		t.Fatalf("second run resumed at %v, want %v", at, firstNow+50)
	}
	if e.LiveProcs() != 0 || e.Pending() != 0 {
		t.Fatalf("engine not clean after reuse: procs=%d pending=%d", e.LiveProcs(), e.Pending())
	}
}

// TestEngineReuseAfterMaxTime: a MaxTime trip pops the event past the limit
// without advancing the clock, so teardown must re-anchor the queue at the
// clock; events the reused engine schedules between the old clock and the
// popped event must still fire, in time order.
func TestEngineReuseAfterMaxTime(t *testing.T) {
	e := NewEngine()
	e.MaxTime = 50
	e.Schedule(10, func() {})
	e.Schedule(100, func() {})
	if err := e.Run(); err == nil {
		t.Fatal("expected the MaxTime valve to trip")
	}
	if e.Now() != 10 || e.Pending() != 0 {
		t.Fatalf("after the trip: now=%v pending=%d, want now=10 pending=0", e.Now(), e.Pending())
	}

	e.MaxTime = 0
	var got []Time
	e.Schedule(99, func() { got = append(got, e.Now()) })
	e.Schedule(20, func() { got = append(got, e.Now()) })
	if err := e.Run(); err != nil {
		t.Fatalf("reused engine failed a clean run: %v", err)
	}
	if len(got) != 2 || got[0] != 20 || got[1] != 99 {
		t.Fatalf("reused run fired at %v, want [20 99]", got)
	}
}

// TestFailedRunReleasesContinuationProcs: procs have no goroutine to leak,
// but a failed run must still reset the live count they contribute to.
func TestFailedRunReleasesContinuationProcs(t *testing.T) {
	e := NewEngine()
	e.SpawnContAt(0, "stuck", contForever{})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs after failed run = %d, want 0", e.LiveProcs())
	}
	e.SpawnContAt(e.Now(), "ok", &exitOnce{})
	if err := e.Run(); err != nil {
		t.Fatalf("reused engine failed a clean run: %v", err)
	}
}

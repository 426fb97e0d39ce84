package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// A two-proc deadlock — each side parked on a different primitive — must be
// reported as a RunError that names both procs, their park sites, and the
// times they parked.
func TestRunErrorDeadlockNamesParkedProcs(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "slots", 1)
	j := NewJoin(1)                                       // never Done'd
	e.Go("holder", sem.AcquireCont, delay(3), j.WaitCont) // parks at t=3, forever
	// Parks at t=7, forever: the holder never releases.
	e.Go("blocked", delay(7), sem.AcquireCont)
	err := e.Run()
	if err == nil {
		t.Fatal("deadlocked engine returned nil")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("deadlock error is not a *RunError: %T %v", err, err)
	}
	if re.Kind != FailDeadlock {
		t.Fatalf("Kind = %v, want FailDeadlock", re.Kind)
	}
	if len(re.Parked) != 2 {
		t.Fatalf("Parked has %d entries, want 2: %+v", len(re.Parked), re.Parked)
	}
	want := map[string]ParkedProc{
		"holder":  {Name: "holder", Site: "join", ParkedAt: 3},
		"blocked": {Name: "blocked", Site: "slots", ParkedAt: 7},
	}
	for _, p := range re.Parked {
		w, ok := want[p.Name]
		if !ok {
			t.Fatalf("unexpected parked proc %+v", p)
		}
		if p.Site != w.Site || p.ParkedAt != w.ParkedAt {
			t.Fatalf("parked %s: got site=%q parkedAt=%v, want site=%q parkedAt=%v",
				p.Name, p.Site, p.ParkedAt, w.Site, w.ParkedAt)
		}
		if p.HasWake {
			t.Fatalf("deadlocked proc %s reports a pending wake at %v", p.Name, p.WakeAt)
		}
		delete(want, p.Name)
	}
	// The rendered message should be usable on its own: both names and both
	// sites inline.
	for _, frag := range []string{"deadlock", "holder@join", "blocked@slots", "t=3", "t=7"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error message %q missing %q", err.Error(), frag)
		}
	}
}

// A MaxEvents trip must report the fired-event count and the engine time it
// stopped at, plus the procs still in flight (with their pending wakes).
func TestRunErrorMaxEventsReportsFiredAndTime(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 100
	e.SpawnContAt(0, "looper", spinner(2))
	err := e.Run()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("MaxEvents error is not a *RunError: %T %v", err, err)
	}
	if re.Kind != FailMaxEvents {
		t.Fatalf("Kind = %v, want FailMaxEvents", re.Kind)
	}
	if re.Fired != 100 || re.MaxEvents != 100 {
		t.Fatalf("Fired=%d MaxEvents=%d, want 100/100", re.Fired, re.MaxEvents)
	}
	if re.Now != e.Now() {
		t.Fatalf("Now=%v, engine at %v", re.Now, e.Now())
	}
	if len(re.Parked) != 1 || re.Parked[0].Name != "looper" || !re.Parked[0].HasWake {
		t.Fatalf("expected looper parked with a pending wake, got %+v", re.Parked)
	}
	for _, frag := range []string{"MaxEvents=100", "100 events fired", "looper@wait"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error message %q missing %q", err.Error(), frag)
		}
	}
}

func TestRunErrorMaxTime(t *testing.T) {
	e := NewEngine()
	e.MaxTime = 50
	var tick func()
	tick = func() { e.After(10, tick) }
	e.Schedule(0, tick)
	var re *RunError
	if err := e.Run(); !errors.As(err, &re) || re.Kind != FailMaxTime {
		t.Fatalf("MaxTime trip: got %v, want RunError{FailMaxTime}", err)
	}
	if re.MaxTime != 50 {
		t.Fatalf("MaxTime field = %v, want 50", re.MaxTime)
	}
}

// An interrupted run must wrap the hook's error so errors.Is still matches
// context cancellation through the RunError, and must carry the parked dump
// so a watchdog kill is as diagnosable as a deadlock.
func TestRunErrorInterruptWrapsCause(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Interrupt = ctx.Err
	e.SpawnContAt(0, "worker", spinner(1))
	err := e.Run()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("interrupt error is not a *RunError: %T %v", err, err)
	}
	if re.Kind != FailInterrupted {
		t.Fatalf("Kind = %v, want FailInterrupted", re.Kind)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
}

// The registry compaction must not lose live procs or leak finished ones
// into the dump: spawn a long churn of short-lived procs, then deadlock with
// exactly two survivors.
func TestRunErrorDumpAfterProcChurn(t *testing.T) {
	e := NewEngine()
	churn := times(500, do(func(*Proc) { e.Go("ephemeral", delay(1)) }), delay(2))
	e.Go("spawner", append(churn, park("churn-done"))...) // never woken
	e.Go("lurker", park("park"))
	err := e.Run()
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailDeadlock {
		t.Fatalf("got %v, want deadlock RunError", err)
	}
	if len(re.Parked) != 2 {
		t.Fatalf("dump has %d procs after churn, want 2: %+v", len(re.Parked), re.Parked)
	}
	sites := map[string]string{}
	for _, p := range re.Parked {
		sites[p.Name] = p.Site
	}
	if sites["spawner"] != "churn-done" || sites["lurker"] != "park" {
		t.Fatalf("wrong survivors/sites: %v", sites)
	}
}

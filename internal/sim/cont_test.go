package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestProcParkStateUnderContextBound pins the struct-size half of the
// threadlet-scale claim: the entire park state of a proc is the Proc
// struct itself, and it must stay within the <200 B hardware
// thread context the paper reports (section III-B). Growing it past the
// bound silently erodes the millions-of-threadlets capacity, so the bound
// is a test, not a comment.
func TestProcParkStateUnderContextBound(t *testing.T) {
	if size := unsafe.Sizeof(Proc{}); size >= 200 {
		t.Fatalf("sim.Proc is %d bytes; the continuation park state must stay under the 200 B hardware context bound", size)
	}
}

// scriptStep is one recorded action of a proc body: the op it performed and
// the simulated time it observed afterwards.
type scriptStep struct {
	proc string
	op   string
	at   Time
}

// contScript is a body that sleeps through a fixed schedule of absolute
// wake times, logging each resumption.
type contScript struct {
	wakes  []Time
	pc     int
	resumg bool // a parked sleep completed; log the wake on re-entry
	log    *[]scriptStep
}

func (s *contScript) StepProc(p *Proc) {
	if s.resumg {
		s.resumg = false
		*s.log = append(*s.log, scriptStep{p.Name(), "wake", p.Now()})
	}
	for s.pc < len(s.wakes) {
		t := s.wakes[s.pc]
		s.pc++
		if p.SleepUntil(t) {
			s.resumg = true
			return
		}
		*s.log = append(*s.log, scriptStep{p.Name(), "wake", p.Now()})
	}
	*s.log = append(*s.log, scriptStep{p.Name(), "exit", p.Now()})
	p.Exit()
}

func scriptSchedules() [][]Time {
	return [][]Time{
		{10, 20, 30},
		{10, 15, 35},
		{5, 20, 20, 40}, // repeated time: exercises same-tick FIFO order
		{25},
	}
}

// goroutineInterleaving is the log, end time and fired-event count of the
// four schedules above, recorded from goroutine-hosted procs performing the
// identical waits before the engine dropped them.
var goroutineInterleaving = struct {
	log   []scriptStep
	now   Time
	fired uint64
}{
	log: []scriptStep{
		{"p2", "wake", 5},
		{"p0", "wake", 10},
		{"p1", "wake", 10},
		{"p1", "wake", 15},
		{"p2", "wake", 20},
		{"p2", "wake", 20},
		{"p0", "wake", 20},
		{"p3", "wake", 25},
		{"p3", "exit", 25},
		{"p0", "wake", 30},
		{"p0", "exit", 30},
		{"p1", "wake", 35},
		{"p1", "exit", 35},
		{"p2", "wake", 40},
		{"p2", "exit", 40},
	},
	now:   40,
	fired: 14,
}

func TestContinuationMatchesGoroutineInterleaving(t *testing.T) {
	e := NewEngine()
	var log []scriptStep
	for i, wakes := range scriptSchedules() {
		e.SpawnContAt(0, fmt.Sprintf("p%d", i), &contScript{wakes: wakes, log: &log})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := goroutineInterleaving
	if e.Now() != want.now || e.Fired() != want.fired {
		t.Fatalf("engine state diverged: now=%v fired=%d, want now=%v fired=%d", e.Now(), e.Fired(), want.now, want.fired)
	}
	if len(log) != len(want.log) {
		t.Fatalf("log lengths differ: %d vs %d", len(log), len(want.log))
	}
	for i := range log {
		if log[i] != want.log[i] {
			t.Fatalf("step %d diverged: %+v, want %+v", i, log[i], want.log[i])
		}
	}
}

// contSemUser acquires a semaphore, holds it for a delay, releases, exits.
type contSemUser struct {
	sem   *Semaphore
	hold  Time
	pc    int
	order *[]string
}

func (s *contSemUser) StepProc(p *Proc) {
	for {
		switch s.pc {
		case 0:
			s.pc = 1
			if s.sem.AcquireCont(p) {
				return
			}
		case 1:
			*s.order = append(*s.order, p.Name())
			s.pc = 2
			if p.SleepUntil(p.Now() + s.hold) {
				return
			}
		case 2:
			s.sem.Release()
			p.Exit()
			return
		}
	}
}

// TestSemaphoreFIFOAcrossProcKinds interleaves procs started by an
// immediate spawn and by a launch event on one capacity-1 semaphore and
// checks the grant order is the arrival order regardless of how each proc
// was started.
func TestSemaphoreFIFOAcrossProcKinds(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "slots", 1)
	var order []string
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("p%d", i)
		user := &contSemUser{sem: sem, hold: 10, order: &order}
		if i%2 == 0 {
			e.SpawnContAt(Time(i), name, user)
		} else {
			e.LaunchContAt(Time(i), name, user)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	if len(order) != len(want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

// contForever suspends and never arranges a wake: a deadlock.
type contForever struct{}

func (contForever) StepProc(p *Proc) { p.Suspend("lost-wakeup") }

func TestContinuationDeadlockDumpHasParkSite(t *testing.T) {
	e := NewEngine()
	e.SpawnContAt(0, "stuck", contForever{})
	err := e.Run()
	re, ok := err.(*RunError)
	if !ok {
		t.Fatalf("Run() = %v, want *RunError", err)
	}
	if re.Kind != FailDeadlock {
		t.Fatalf("kind = %v, want deadlock", re.Kind)
	}
	if len(re.Parked) != 1 || re.Parked[0].Name != "stuck" || re.Parked[0].Site != "lost-wakeup" {
		t.Fatalf("parked dump = %+v", re.Parked)
	}
}

// exitOnce sleeps once and exits; used to observe freelist recycling.
type exitOnce struct{ d Time }

func (s *exitOnce) StepProc(p *Proc) {
	if p.Now() == 0 && s.d > 0 && p.SleepUntil(s.d) {
		s.d = 0
		return
	}
	p.Exit()
}

// TestContinuationProcsAreRecycled spawns waves of continuation procs and
// checks the engine reuses Proc structs from the continuation freelist
// rather than allocating one per spawn.
func TestContinuationProcsAreRecycled(t *testing.T) {
	// Teardown clears the pools between runs, so recycling is observed
	// within one run: a spawn after the first proc exits must reuse it.
	e := NewEngine()
	var second *Proc
	first := e.SpawnContAt(0, "a", &exitOnce{})
	e.Schedule(5, func() {
		second = e.SpawnContAt(5, "b", &exitOnce{})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("second spawn did not recycle the finished continuation proc")
	}
}

// TestJoinWaitContWakesOnLastDone: a parent forks children through a Join
// and resumes exactly when the last one finishes.
type contJoiner struct {
	join *Join
	pc   int
	done *Time
}

func (s *contJoiner) StepProc(p *Proc) {
	switch s.pc {
	case 0:
		s.pc = 1
		if s.join.WaitCont(p) {
			return
		}
		fallthrough
	case 1:
		*s.done = p.Now()
		p.Exit()
	}
}

func TestJoinWaitContWakesOnLastDone(t *testing.T) {
	e := NewEngine()
	j := NewJoin(0)
	var done Time
	for i := 0; i < 3; i++ {
		j.Add(1)
		e.Go("child", delay(Time(10*(i+1))), do(func(*Proc) { j.Done() }))
	}
	e.SpawnContAt(0, "parent", &contJoiner{join: j, done: &done})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 30 {
		t.Fatalf("parent resumed at %v, want 30", done)
	}
}

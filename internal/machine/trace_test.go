package machine

import (
	"strings"
	"testing"

	"emuchick/internal/trace"
)

func TestTraceCapturesOps(t *testing.T) {
	s := NewSystem(HardwareChick())
	var events []trace.Event
	s.Attach(trace.FuncObserver{OnEvent: func(e trace.Event) { events = append(events, e) }})
	local := s.Mem.AllocLocal(0, 2)
	remote := s.Mem.AllocLocal(3, 2)
	_, err := s.Run(&script{
		func(th *CThread) bool { return th.CLoad(local.At(0)) },          // load
		func(th *CThread) bool { return th.CStore(local.At(1), 1) },      // store
		func(th *CThread) bool { return th.CStore(remote.At(0), 2) },     // remote_store
		func(th *CThread) bool { return th.CRemoteAdd(remote.At(1), 1) }, // atomic
		func(th *CThread) bool { return th.CSpawn(&script{}) },           // spawn
		(*CThread).CSync,
		func(th *CThread) bool { return th.CMigrateTo(5) }, // migrate
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindLoad, trace.KindStore, trace.KindRemoteStore, trace.KindAtomic, trace.KindSpawn, trace.KindMigrate} {
		if kinds[k] == 0 {
			t.Errorf("no %v events", k)
		}
	}
	// Remote ops carry their destination.
	for _, e := range events {
		if e.Kind == trace.KindRemoteStore && e.Target != 3 {
			t.Errorf("remote store target = %d", e.Target)
		}
		if e.Kind == trace.KindMigrate && e.Target != 5 {
			t.Errorf("migrate target = %d", e.Target)
		}
	}
	// Times are monotone non-decreasing.
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatal("trace times not monotone")
		}
	}
}

func TestTraceToLimits(t *testing.T) {
	s := NewSystem(HardwareChick())
	var b strings.Builder
	s.TraceTo(&b, 3)
	arr := s.Mem.AllocLocal(0, 10)
	sc := loadAll(arr.At, 10)
	if _, err := s.Run(&sc); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(b.String(), "\n")
	if lines != 3 {
		t.Fatalf("trace emitted %d lines, want 3", lines)
	}
	if !strings.Contains(b.String(), "load") {
		t.Fatal("trace lines missing kind")
	}
}

func TestTraceEventStrings(t *testing.T) {
	if trace.KindLoad.String() != "load" || trace.KindMigrate.String() != "migrate" {
		t.Fatal("kind names wrong")
	}
	if trace.Kind(42).String() == "" {
		t.Fatal("unknown kind empty")
	}
	e := trace.Event{Kind: trace.KindMigrate, Nodelet: 1, Target: 2}
	if !strings.Contains(e.String(), "nl1 -> nl2") {
		t.Fatalf("event string %q", e.String())
	}
	e2 := trace.Event{Kind: trace.KindLoad, Nodelet: 1, Target: -1}
	if strings.Contains(e2.String(), "->") {
		t.Fatalf("local event string %q", e2.String())
	}
}

func TestTraceUninstall(t *testing.T) {
	s := NewSystem(HardwareChick())
	count := 0
	s.Attach(trace.FuncObserver{OnEvent: func(trace.Event) { count++ }})
	s.Attach(nil)
	arr := s.Mem.AllocLocal(0, 1)
	sc := loadAll(arr.At, 1)
	if _, err := s.Run(&sc); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatal("uninstalled tracer still fired")
	}
}

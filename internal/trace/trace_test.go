package trace

import (
	"strings"
	"testing"

	"emuchick/internal/sim"
)

func TestKindStrings(t *testing.T) {
	if KindLoad.String() != "load" || KindMigrate.String() != "migrate" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
	for k := Kind(0); k < numKinds; k++ {
		if strings.Contains(k.String(), "Kind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
}

func TestKindHasAddr(t *testing.T) {
	if !KindLoad.HasAddr() || !KindMigrate.HasAddr() {
		t.Fatal("memory kinds should carry addresses")
	}
	if KindSpawn.HasAddr() || KindRunBegin.HasAddr() {
		t.Fatal("control kinds should not carry addresses")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: KindMigrate, Nodelet: 1, Target: 2}
	if !strings.Contains(e.String(), "nl1 -> nl2") {
		t.Fatalf("event string %q", e.String())
	}
	local := Event{Kind: KindLoad, Nodelet: 1, Target: -1}
	if strings.Contains(local.String(), "->") {
		t.Fatalf("local event string %q", local.String())
	}
}

func TestFuncObserverAndTee(t *testing.T) {
	var events, samples int
	a := FuncObserver{OnEvent: func(Event) { events++ }}
	b := FuncObserver{OnSample: func(Sample) { samples++ }}
	obs := Tee(nil, a, b)
	obs.Event(Event{Kind: KindLoad})
	obs.Sample(Sample{})
	if events != 1 || samples != 1 {
		t.Fatalf("tee delivered events=%d samples=%d", events, samples)
	}
	if Tee() != nil || Tee(nil) != nil {
		t.Fatal("empty tee should be nil")
	}
	if got := Tee(a); got == nil {
		t.Fatal("single tee should unwrap")
	}
}

func TestAggregatorBuckets(t *testing.T) {
	a := NewAggregator(sim.Microsecond)
	a.Event(Event{Kind: KindRunBegin, Nodelet: 8, Target: -1})
	// A migration departing nl0 at 0.5us arriving nl3 at 1.5us.
	a.Event(Event{Kind: KindMigrate, Nodelet: 0, Target: 3,
		Time: sim.Microsecond / 2, End: 3 * sim.Microsecond / 2})
	// Two loads on nl3 in bucket 0.
	a.Event(Event{Kind: KindLoad, Nodelet: 3, Target: -1})
	a.Event(Event{Kind: KindLoad, Nodelet: 3, Target: -1, Time: sim.Nanosecond})
	// A remote store served by nl5's channel.
	a.Event(Event{Kind: KindRemoteStore, Nodelet: 1, Target: 5, Time: 2 * sim.Microsecond})
	// A spawn landing on nl2.
	a.Event(Event{Kind: KindSpawn, Nodelet: 0, Target: 2, End: sim.Microsecond})

	if a.Runs() != 1 {
		t.Fatalf("runs = %d", a.Runs())
	}
	if got := a.TotalMigrations(); got != 1 {
		t.Fatalf("total migrations = %d", got)
	}
	if got := a.TotalWords(); got != 3 {
		t.Fatalf("total words = %d", got)
	}
	c0 := a.Cells(0)
	if c0[0].MigrationsOut != 1 {
		t.Fatalf("nl0 bucket0 out = %d", c0[0].MigrationsOut)
	}
	c3 := a.Cells(3)
	if c3[1].MigrationsIn != 1 {
		t.Fatalf("nl3 bucket1 in = %d", c3[1].MigrationsIn)
	}
	if c3[0].Words != 2 {
		t.Fatalf("nl3 bucket0 words = %d", c3[0].Words)
	}
	if a.Cells(2)[1].Spawns != 1 {
		t.Fatal("spawn not attributed to child nodelet")
	}
	if a.Cells(5)[2].Words != 1 {
		t.Fatal("remote store not attributed to home channel")
	}
	if rate := a.PeakMigrationsPerSec(); rate != 1e6 {
		t.Fatalf("peak migration rate = %v", rate)
	}
}

func TestAggregatorSamplesAndFigures(t *testing.T) {
	a := NewAggregator(0) // default bucket
	if a.Bucket() != DefaultBucket {
		t.Fatal("default bucket not applied")
	}
	a.Event(Event{Kind: KindMigrate, Nodelet: 0, Target: 1, End: sim.Nanosecond})
	a.Sample(Sample{Nodelet: 1, ContextWaiters: 7, ContextsUsed: 3, ChannelBacklog: 42})
	a.Sample(Sample{Nodelet: 1, ContextWaiters: 2, ChannelBacklog: 10})
	if a.PeakContextWaiters(1) != 7 {
		t.Fatalf("peak waiters = %d", a.PeakContextWaiters(1))
	}
	if a.PeakChannelBacklog(1) != 42 {
		t.Fatalf("peak backlog = %v", a.PeakChannelBacklog(1))
	}
	if a.PeakContextWaiters(99) != 0 || a.PeakChannelBacklog(-1) != 0 {
		t.Fatal("out-of-range peeks should be zero")
	}

	if rate := a.PeakMigrationsPerSec(); rate != 1/DefaultBucket.Seconds() {
		t.Fatalf("peak migration rate = %v", rate)
	}
}

func TestChromeWriterRing(t *testing.T) {
	w := NewChromeWriter(4)
	for i := 0; i < 10; i++ {
		w.Event(Event{Kind: KindLoad, Nodelet: 0, Target: -1, Time: sim.Time(i)})
	}
	if w.Len() != 4 {
		t.Fatalf("ring length = %d", w.Len())
	}
	if w.Dropped() != 6 {
		t.Fatalf("dropped = %d", w.Dropped())
	}
	// Oldest-first iteration must yield times 6,7,8,9.
	var times []sim.Time
	w.orderedEvents(func(e Event) { times = append(times, e.Time) })
	for i, want := range []sim.Time{6, 7, 8, 9} {
		if times[i] != want {
			t.Fatalf("ordered times = %v", times)
		}
	}
}

func TestChromeWriterChromeOutput(t *testing.T) {
	w := NewChromeWriter(64)
	w.Event(Event{Kind: KindRunBegin, Nodelet: 2, Target: -1})
	w.Event(Event{Kind: KindMigrate, Nodelet: 0, Target: 1, Addr: 7,
		Time: 0, End: sim.Microsecond})
	w.Event(Event{Kind: KindLoad, Nodelet: 1, Target: -1, Time: sim.Microsecond, End: sim.Microsecond + 5})
	w.Sample(Sample{Time: sim.Microsecond, Nodelet: 0, ContextsUsed: 1})
	if w.Runs() != 1 {
		t.Fatalf("runs = %d", w.Runs())
	}

	var b strings.Builder
	if err := w.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	info, err := ValidateChrome(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("self-produced chrome trace invalid: %v\n%s", err, b.String())
	}
	if info.Migrations != 1 {
		t.Fatalf("migrations in trace = %d", info.Migrations)
	}
	if info.Counters != 2 { // contexts + backlog tracks
		t.Fatalf("counter records = %d", info.Counters)
	}
	if info.Metadata == 0 {
		t.Fatal("no metadata records (process/thread names)")
	}
	if !strings.Contains(b.String(), "nodelet 1") {
		t.Fatal("missing thread_name metadata")
	}
}

func TestChromeWriterJSONLOutput(t *testing.T) {
	w := NewChromeWriter(64)
	w.Event(Event{Kind: KindMigrate, Nodelet: 0, Target: 5, Addr: 99, End: 10})
	w.Event(Event{Kind: KindThreadStart, Nodelet: 3, Target: -1})
	w.Sample(Sample{Nodelet: 2, ContextsUsed: 4, ContextWaiters: 1, ChannelBacklog: 100})
	var b strings.Builder
	if err := w.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	info, err := ValidateJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("self-produced JSONL invalid: %v\n%s", err, b.String())
	}
	if info.Events != 2 || info.Counters != 1 || info.Migrations != 1 {
		t.Fatalf("summary %+v", info)
	}
}

// Regression: sample-ring overwrites were counted (smDrop) but never exposed
// — Dropped() only reported event drops, so a trace whose counter tracks
// silently started mid-run looked complete. Both drop counts must now
// surface through the writer, both formats, and both validators.
func TestChromeWriterSampleDropsSurfaced(t *testing.T) {
	w := NewChromeWriter(8) // sample ring: 2 entries
	w.Event(Event{Kind: KindLoad, Nodelet: 0, Target: -1})
	for i := 0; i < 5; i++ {
		w.Sample(Sample{Time: sim.Time(i), Nodelet: 0})
	}
	if w.Dropped() != 0 {
		t.Fatalf("event drops = %d, want 0", w.Dropped())
	}
	if w.DroppedSamples() != 3 {
		t.Fatalf("sample drops = %d, want 3", w.DroppedSamples())
	}

	var jl strings.Builder
	if err := w.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	info, err := ValidateJSONL(strings.NewReader(jl.String()))
	if err != nil {
		t.Fatalf("JSONL with drops record invalid: %v\n%s", err, jl.String())
	}
	if info.DroppedSamples != 3 || info.DroppedEvents != 0 || info.Complete() {
		t.Fatalf("JSONL drop summary %+v", info)
	}

	var ch strings.Builder
	if err := w.WriteChrome(&ch); err != nil {
		t.Fatal(err)
	}
	info, err = ValidateChrome(strings.NewReader(ch.String()))
	if err != nil {
		t.Fatalf("chrome trace with drop metadata invalid: %v", err)
	}
	if info.DroppedSamples != 3 || info.Complete() {
		t.Fatalf("chrome drop summary %+v", info)
	}
}

// A writer with no drops must keep both formats byte-identical to the
// pre-drop-record schema: no "drops" line, no ring_dropped_* metadata.
func TestCompleteTraceCarriesNoDropRecords(t *testing.T) {
	w := NewChromeWriter(64)
	w.Event(Event{Kind: KindLoad, Nodelet: 0, Target: -1})
	var jl, ch strings.Builder
	if err := w.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChrome(&ch); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(jl.String(), "drops") || strings.Contains(ch.String(), "ring_dropped") {
		t.Fatal("complete trace carries drop records")
	}
	info, err := ValidateJSONL(strings.NewReader(jl.String()))
	if err != nil || !info.Complete() {
		t.Fatalf("complete trace reported incomplete: %+v, %v", info, err)
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	if _, err := ValidateJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage JSONL accepted")
	}
	if _, err := ValidateJSONL(strings.NewReader(`{"t":0,"kind":"nope","nl":0}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ValidateJSONL(strings.NewReader("")); err == nil {
		t.Fatal("empty JSONL accepted")
	}
	if _, err := ValidateChrome(strings.NewReader("{}")); err == nil {
		t.Fatal("non-array chrome trace accepted")
	}
	if _, err := ValidateChrome(strings.NewReader(`[{"name":"x","ph":"?","ts":"0","pid":0,"tid":0}]`)); err == nil {
		t.Fatal("bad phase accepted")
	}
	if _, err := ValidateChrome(strings.NewReader(`[]`)); err == nil {
		t.Fatal("empty chrome trace accepted")
	}
}

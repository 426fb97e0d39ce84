package sim

import (
	"slices"
	"testing"
)

// stamp identifies one event: when it is due (or fired) and its scheduling
// index, the position of its Schedule/SpawnContAt/SleepUntil call among all
// the run's scheduling calls.
type stamp struct {
	at  Time
	idx int
}

// orderLog records every event a test schedules as (due time, index) and
// every firing as (Now, index), so checkOrder can hold the engine to its
// dispatch contract: time order, ties in scheduling order.
type orderLog struct {
	e         *Engine
	scheduled []stamp
	fired     []stamp
}

// note records a scheduling call for time at and returns its index.
func (l *orderLog) note(at Time) int {
	l.scheduled = append(l.scheduled, stamp{at, len(l.scheduled)})
	return len(l.scheduled) - 1
}

// fire records that the event with index idx is running now.
func (l *orderLog) fire(idx int) {
	l.fired = append(l.fired, stamp{l.e.Now(), idx})
}

// schedule is Engine.Schedule with both ends recorded.
func (l *orderLog) schedule(at Time, fn func()) {
	idx := l.note(at)
	l.e.Schedule(at, func() {
		l.fire(idx)
		fn()
	})
}

// checkOrder fails t unless the fired (Now, index) pairs are strictly
// increasing and equal the scheduled events stably sorted by time — every
// event fired exactly once, at its due time, ties in scheduling order.
func checkOrder(t testing.TB, l *orderLog) {
	t.Helper()
	want := slices.Clone(l.scheduled)
	slices.SortStableFunc(want, func(a, b stamp) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	for i, f := range l.fired {
		if i > 0 {
			p := l.fired[i-1]
			if f.at < p.at || (f.at == p.at && f.idx <= p.idx) {
				t.Fatalf("firing %d: (%v, #%d) does not follow (%v, #%d)", i, f.at, f.idx, p.at, p.idx)
			}
		}
		if i >= len(want) {
			t.Fatalf("%d events fired, only %d were scheduled", len(l.fired), len(want))
		}
		if f != want[i] {
			t.Fatalf("firing %d is (%v, #%d); the stable time order wants (%v, #%d)", i, f.at, f.idx, want[i].at, want[i].idx)
		}
	}
	if len(l.fired) != len(want) {
		t.Fatalf("%d events fired, %d were scheduled", len(l.fired), len(want))
	}
}

// fuzzHorizon caps every due time so long chains of huge delays cannot
// overflow Time; saturating there piles events onto one far tick.
const fuzzHorizon Time = 1 << 62

// orderProgram turns fuzz bytes into a schedule program. Each op is a pair
// (kind, arg); the first few ops seed the queue before Run, and every
// firing — callback or proc wake — runs the next op from inside the event,
// so the program also schedules from within events, at and after now.
type orderProgram struct {
	l    *orderLog
	data []byte
}

// fuzzDelay decodes a delay class: zero, a small chase-like step, or
// 2^40 ps and up, which lands in the queue's high buckets.
func fuzzDelay(class, arg byte) Time {
	switch class % 3 {
	case 0:
		return 0
	case 1:
		return Time(arg)
	}
	return 1 << (40 + arg%22)
}

// due is now+d, saturated at fuzzHorizon.
func (pr *orderProgram) due(d Time) Time {
	now := pr.l.e.Now()
	return now + min(d, fuzzHorizon-now)
}

// step runs the next op, if any remain.
func (pr *orderProgram) step() {
	if len(pr.data) < 2 {
		return
	}
	kind, arg := pr.data[0], pr.data[1]
	pr.data = pr.data[2:]
	switch kind % 4 {
	case 0, 1: // one callback, zero, small or huge delay
		pr.l.schedule(pr.due(fuzzDelay(kind>>2, arg)), pr.step)
	case 2: // a chain of same-time callbacks, each scheduled by the last
		pr.chain(pr.due(fuzzDelay(kind>>2, arg)), int(arg%4)+1)
	case 3: // a continuation proc that sleeps a few times
		s := &orderSleeper{pr: pr, kind: kind >> 2, arg: arg, left: int(arg%4) + 1}
		at := pr.due(fuzzDelay(kind>>2, arg))
		s.idx = pr.l.note(at)
		pr.l.e.SpawnContAt(at, "sleeper", s)
	}
}

// chain schedules n callbacks at t, each from inside the previous one.
func (pr *orderProgram) chain(t Time, n int) {
	pr.l.schedule(t, func() {
		pr.step()
		if n > 1 {
			pr.chain(pr.l.e.Now(), n-1)
		}
	})
}

// orderSleeper is a continuation proc that SleepUntils left more times,
// recording each wake as an event. A sleep that fast-forwards records its
// wake in place, which is exactly where the dispatch it skipped would fire.
type orderSleeper struct {
	pr        *orderProgram
	kind, arg byte
	left      int
	idx       int // index of the pending wake
}

func (s *orderSleeper) StepProc(p *Proc) {
	for {
		s.pr.l.fire(s.idx)
		s.pr.step()
		if s.left == 0 {
			p.Exit()
			return
		}
		s.left--
		s.kind, s.arg = s.kind+1, s.arg*31+7
		at := s.pr.due(max(1, fuzzDelay(s.kind, s.arg)))
		if at == p.Now() { // saturated at the horizon: no sleep left to take
			p.Exit()
			return
		}
		s.idx = s.pr.l.note(at)
		if p.SleepUntil(at) {
			return
		}
	}
}

// runOrderProgram runs data as a schedule program on a fresh engine and
// returns the log.
func runOrderProgram(t testing.TB, data []byte) *orderLog {
	l := &orderLog{e: NewEngine()}
	pr := &orderProgram{l: l, data: data}
	seeds := 1
	if len(data) > 0 {
		seeds += int(data[0] % 8)
	}
	for i := 0; i < seeds; i++ {
		pr.step()
	}
	if err := l.e.Run(); err != nil {
		t.Fatal(err)
	}
	return l
}

// FuzzEngineOrder holds the engine to its dispatch contract over arbitrary
// schedule programs: zero, small and huge delays, same-time chains
// scheduled from inside events, and continuation procs whose sleeps take
// the fast-forward path whenever nothing else is due first.
//
// The seed corpus lives in testdata/fuzz/FuzzEngineOrder; go test replays
// it, go test -fuzz FuzzEngineOrder explores from it.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		checkOrder(t, runOrderProgram(t, data))
	})
}

package sim

import "fmt"

// event is a scheduled engine action: a plain callback (fn set), the
// dispatch of a parked Proc (proc set), or the launch of a freshly spawned
// Proc (both set, fn == launchMark; firing it schedules the proc's first
// dispatch at the fire time). Dispatch and launch targets are kept in
// dedicated fields rather than closures so the context-switch and spawn hot
// paths (WaitUntil, Unpark, SpawnAt, LaunchAt) allocate nothing per event.
// Events fire in time order, ties in scheduling order, so runs are
// deterministic.
type event struct {
	at   Time
	fn   func()
	proc *Proc
}

// Engine is a sequential discrete-event simulator. It is not safe for
// concurrent use; all interaction must happen from the goroutine that calls
// Run, or from a Proc while that Proc holds the control token.
//
// Pending events live in one monotone radix queue keyed on time (see
// queue): appends are O(1), a pop either takes the head of the bucket due
// now or splits the lowest non-empty bucket, and the earliest pending time
// is one bitmask scan away, which is what the WaitUntil fast-forward reads.
// Equal times share a bucket in scheduling order, so events fire in
// (at, scheduling order) without a sequence number.
type Engine struct {
	now Time
	q   queue

	// done carries the run's outcome from whichever goroutine drains the
	// queue (or trips a valve) back to the Run caller. Buffered so the
	// sender never blocks.
	done chan error

	procs int     // live (spawned, not finished) procs
	all   []*Proc // every registered Proc, for failure dumps (see register)

	// free holds finished Procs whose goroutines are parked in procLoop,
	// ready to be recycled by the next spawn; stop, captured by each pooled
	// goroutine at creation, is closed when Run ends so the pool drains.
	// freeCont is the separate pool for continuation procs, which have no
	// goroutine or channel to keep alive.
	free     []*Proc
	freeCont []*Proc
	stop     chan struct{}

	// aborted is set during failed-run teardown while live goroutine procs
	// are being released (see abortParked); each one acknowledges on
	// abortAck as its host goroutine unwinds.
	aborted  bool
	abortAck chan struct{}

	fired     uint64 // events dispatched so far
	MaxEvents uint64 // safety valve; 0 means no limit
	MaxTime   Time   // safety valve; 0 means no limit

	// Interrupt, when non-nil, is polled every 1024 dispatched events; a
	// non-nil return aborts the run with that error. Callers point it at a
	// context.Context's Err to make runs cancellable without per-event cost.
	Interrupt func() error
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// NewEngineSized is NewEngine with the event queue's node slab pre-sized for
// roughly hint concurrently pending events (machine models pass their
// hardware thread-context capacity), so the run neither regrows the slab nor
// makes the GC rescan its growing copies.
func NewEngineSized(hint int) *Engine {
	e := NewEngine()
	if hint > 0 {
		e.q.slab = make([]node, 0, hint)
	}
	return e
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched.
func (e *Engine) Fired() uint64 { return e.fired }

// LiveProcs reports the number of spawned processes that have not finished.
func (e *Engine) LiveProcs() int { return e.procs }

// Pending reports the number of scheduled events that have not yet fired.
func (e *Engine) Pending() int { return e.q.len() }

// Schedule registers fn to run at absolute time t. Scheduling in the past is
// a bug in the caller and panics.
func (e *Engine) Schedule(t Time, fn func()) {
	e.schedule(t, event{fn: fn})
}

// scheduleProc registers the dispatch of p at absolute time t without
// allocating a closure. The wake-up time is mirrored onto the Proc so a
// failure dump can distinguish "parked with a pending wake" from "parked
// forever".
//
//emu:hotpath every park/wake schedules through here
func (e *Engine) scheduleProc(t Time, p *Proc) {
	p.wakeAt = t
	p.hasWake = true
	e.schedule(t, event{proc: p})
}

//emu:hotpath queue insert, allocation-free in steady state
func (e *Engine) schedule(t Time, ev event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev.at = t
	e.q.push(ev)
}

// After registers fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.Schedule(e.now+d, fn)
}

// fastForward is the uncontended-wait fast path behind Proc.WaitUntil: the
// calling Proc holds the control token and wants to sleep until t. If every
// pending event fires strictly after t, the dispatch event WaitUntil would
// schedule at t would by construction be the very next event advance pops
// (a pending event at exactly t was scheduled earlier and would fire first,
// hence the strict comparison). In that case the schedule/pop round trip and
// the token hand-back are pure overhead: the engine instead counts the
// firing directly and hops the clock to t, leaving (now, fired) — and
// therefore every subsequent event ordering — bit-identical to the slow
// path. Runs with a safety valve or interrupt hook in a state the event loop
// would act on decline the fast path so failure behaviour is byte-for-byte
// unchanged.
//
//emu:hotpath the no-contention wait: a clock hop instead of a queue round trip
func (e *Engine) fastForward(t Time) bool {
	if e.MaxEvents > 0 && e.fired >= e.MaxEvents {
		return false
	}
	if e.MaxTime > 0 && t > e.MaxTime {
		return false
	}
	if e.Interrupt != nil && e.fired&1023 == 0 {
		return false
	}
	if first, ok := e.q.peek(); ok && first <= t {
		return false
	}
	e.fired++
	e.now = t
	return true
}

// Run dispatches events in order until none remain. It returns an error if a
// safety valve trips or if processes are still live when the event queue
// drains (a deadlock: some Proc parked forever).
//
// The event loop itself is not pinned to this goroutine: it migrates with
// the control token. When a Proc yields, its goroutine runs the loop until
// the token moves on — so a proc-to-proc context switch is one direct
// channel handoff, and a Proc whose own wake-up is the next event continues
// without any handoff at all.
// Run may be called again on the same engine after it returns: teardown
// leaves the engine in a clean reusable state whether the run succeeded or
// failed (the clock and fired count stay monotonic across runs — simulated
// time never rewinds).
func (e *Engine) Run() error {
	e.done = make(chan error, 1)
	e.advance(nil)
	err := <-e.done
	e.teardown(err != nil)
	return err
}

// teardown retires the proc pools after a run. After a failed run it first
// releases every proc still parked mid-body — historically those goroutines
// stayed blocked on their resume channels forever, a leak that accumulated
// in long-lived job servers as watchdog-killed, cancelled, and deadlocked
// runs piled up — and then clears the scheduling state (un-fired events,
// live-proc count, failure registry) the failure left behind and re-anchors
// the queue at the clock, so reusing the engine cannot silently misbehave.
// Closing stop lets the freelisted goroutines, all parked in procLoop's
// select, exit.
func (e *Engine) teardown(failed bool) {
	if failed {
		e.abortParked()
		e.q.reset(e.now)
		e.procs = 0
	}
	if e.stop != nil {
		close(e.stop)
		e.stop = nil
	}
	e.free = nil
	e.freeCont = nil
	for i := range e.all {
		e.all[i].registered = false
		e.all[i] = nil
	}
	e.all = e.all[:0]
}

// abortParked wakes every goroutine proc still parked mid-body and unwinds
// it: the proc's next resume observes e.aborted and panics with an abort
// sentinel that procLoop recovers, acknowledging on abortAck before its
// goroutine exits. The unbuffered resume send doubles as the rendezvous — it
// completes only once the target goroutine has actually reached its receive,
// so a proc whose goroutine was still between "scheduled" and "parked"
// cannot be missed. Continuation procs have no goroutine to release; they
// are simply dropped with the rest of the engine state.
func (e *Engine) abortParked() {
	waking := 0
	for _, p := range e.all {
		if !p.done && p.resume != nil {
			waking++
		}
	}
	if waking == 0 {
		return
	}
	e.aborted = true
	e.abortAck = make(chan struct{}, waking)
	for _, p := range e.all {
		if !p.done && p.resume != nil {
			p.resume <- struct{}{}
		}
	}
	for i := 0; i < waking; i++ {
		<-e.abortAck
	}
	e.aborted = false
	e.abortAck = nil
}

// advance runs the event loop on the calling goroutine. self is the Proc
// the caller is running as (nil for the Run goroutine, or a just-finished
// Proc whose done flag is set). It returns true when the popped event
// re-dispatches self, in which case the caller simply keeps executing.
// Otherwise the token was handed to another Proc, or the run ended and its
// outcome was sent on e.done; either way the caller no longer holds the
// token and must block on its resume channel (a parked Proc) or return (the
// Run goroutine, a finished Proc).
//
//emu:hotpath the event loop itself; failure exits allocate via e.failure, which is fine — they end the run
func (e *Engine) advance(self *Proc) bool {
	for {
		if e.q.empty() {
			if e.procs > 0 {
				e.done <- e.failure(FailDeadlock, nil)
			} else {
				e.done <- nil
			}
			return false
		}
		if e.MaxEvents > 0 && e.fired >= e.MaxEvents {
			e.done <- e.failure(FailMaxEvents, nil)
			return false
		}
		if e.Interrupt != nil && e.fired&1023 == 0 {
			if err := e.Interrupt(); err != nil {
				e.done <- e.failure(FailInterrupted, err)
				return false
			}
		}
		ev := e.q.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		if e.MaxTime > 0 && ev.at > e.MaxTime {
			e.done <- e.failure(FailMaxTime, nil)
			return false
		}
		e.now = ev.at
		e.fired++
		if ev.proc == nil {
			ev.fn()
			continue
		}
		if ev.fn != nil {
			// Launch: schedule the new proc's first dispatch now, behind
			// every event already due now, exactly as the closure-based
			// deferred spawn did when its Schedule closure fired.
			e.scheduleProc(e.now, ev.proc)
			continue
		}
		if ev.proc.done {
			panic("sim: dispatching finished proc " + ev.proc.name)
		}
		ev.proc.hasWake = false
		if s := ev.proc.stepper; s != nil {
			// Continuation dispatch: resume the state machine in place — a
			// method call, not a handoff. The token never leaves this
			// goroutine, so the loop just continues.
			s.StepProc(ev.proc)
			continue
		}
		if ev.proc == self {
			return true
		}
		ev.proc.resume <- struct{}{}
		return false
	}
}

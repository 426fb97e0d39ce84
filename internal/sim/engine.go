package sim

import "fmt"

// event is a scheduled engine action: a plain callback (fn set), the
// dispatch of a parked Proc (proc set), or the launch of a freshly spawned
// Proc (both set, fn == launchMark; firing it schedules the proc's first
// dispatch at the fire time). Dispatch and launch targets are kept in
// dedicated fields rather than closures so the context-switch and spawn hot
// paths (SleepUntil, Unpark, SpawnContAt, LaunchContAt) allocate nothing per
// event. Events fire in time order, ties in scheduling order, so runs are
// deterministic.
type event struct {
	at   Time
	fn   func()
	proc *Proc
}

// Engine is a sequential discrete-event simulator. It is not safe for
// concurrent use; all interaction must happen from the goroutine that calls
// Run, which is also the goroutine every Proc's Stepper runs on.
//
// Pending events live in one monotone radix queue keyed on time (see
// queue): appends are O(1), a pop either takes the head of the bucket due
// now or splits the lowest non-empty bucket, and the earliest pending time
// is one bitmask scan away, which is what the SleepUntil fast-forward reads.
// Equal times share a bucket in scheduling order, so events fire in
// (at, scheduling order) without a sequence number.
type Engine struct {
	now Time
	q   queue

	procs int     // live (spawned, not finished) procs
	all   []*Proc // every registered Proc, for failure dumps (see register)

	// free holds finished Procs, recycled by the next spawn.
	free []*Proc

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
func (e *Engine) scheduleProc(t Time, p *Proc) {
	p.wakeAt = t
	p.hasWake = true
	e.schedule(t, event{proc: p})
}

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

// fastForward is the uncontended-wait fast path behind Proc.SleepUntil: the
// calling Proc is running and wants to sleep until t. If every pending event
// fires strictly after t, the dispatch event SleepUntil would schedule at t
// would by construction be the very next event advance pops (a pending event
// at exactly t was scheduled earlier and would fire first, hence the strict
// comparison). In that case the schedule/pop round trip is pure overhead:
// the engine instead counts the firing directly and hops the clock to t,
// leaving (now, fired) — and therefore every subsequent event ordering —
// bit-identical to the slow path. Runs with a safety valve or interrupt hook
// in a state the event loop would act on decline the fast path so failure
// behaviour is byte-for-byte unchanged.
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
// Run may be called again on the same engine after it returns: teardown
// leaves the engine in a clean reusable state whether the run succeeded or
// failed (the clock and fired count stay monotonic across runs — simulated
// time never rewinds).
func (e *Engine) Run() error {
	err := e.advance()
	e.teardown(err != nil)
	return err
}

// teardown retires the proc pool after a run. After a failed run it also
// clears the scheduling state (un-fired events, live-proc count, failure
// registry) the failure left behind and re-anchors the queue at the clock,
// so reusing the engine cannot silently misbehave. Procs parked mid-body
// hold no goroutine or other runtime resource; dropping them is the whole
// release.
func (e *Engine) teardown(failed bool) {
	if failed {
		e.q.reset(e.now)
		e.procs = 0
	}
	e.free = nil
	for i := range e.all {
		e.all[i].registered = false
		e.all[i] = nil
	}
	e.all = e.all[:0]
}

// advance runs the event loop until the queue drains or a valve trips, and
// returns the run's outcome. A proc dispatch resumes the proc's Stepper in
// place — a method call, not a goroutine handoff.
// Only its failure exits allocate, through e.failure, and they end the run.
func (e *Engine) advance() error {
	for {
		if e.q.empty() {
			if e.procs > 0 {
				return e.failure(FailDeadlock, nil)
			}
			return nil
		}
		if e.MaxEvents > 0 && e.fired >= e.MaxEvents {
			return e.failure(FailMaxEvents, nil)
		}
		if e.Interrupt != nil && e.fired&1023 == 0 {
			if err := e.Interrupt(); err != nil {
				return e.failure(FailInterrupted, err)
			}
		}
		ev := e.q.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		if e.MaxTime > 0 && ev.at > e.MaxTime {
			return e.failure(FailMaxTime, nil)
		}
		e.now = ev.at
		e.fired++
		if ev.proc == nil {
			ev.fn()
			continue
		}
		if ev.fn != nil {
			// Launch: schedule the new proc's first dispatch now, behind
			// every event already due now.
			e.scheduleProc(e.now, ev.proc)
			continue
		}
		if ev.proc.done {
			panic("sim: dispatching finished proc " + ev.proc.name)
		}
		ev.proc.hasWake = false
		ev.proc.stepper.StepProc(ev.proc)
	}
}

package sim

// Proc is a simulated process: a goroutine whose execution is interleaved
// with the engine through a control token so that exactly one of (engine,
// some Proc) runs at any moment. While a Proc holds the token it may freely
// read and mutate engine-owned state (resources, counters, other model
// structures) without locks; when it performs a blocking operation it runs
// the engine's event loop itself until the token moves to the next runnable
// party (see Engine.advance) and is re-dispatched by a scheduled event.
//
// This is cooperative coroutine scheduling over goroutines — the idiomatic
// Go way to express a process-oriented discrete-event simulation while
// keeping the model code in straight-line style.
//
// Procs are pooled: when a body returns, the Proc (and its goroutine, with
// its grown stack) parks on the engine's freelist and is recycled by the
// next spawn. Spawn-heavy kernels — the paper's fine-grained Cilk trees —
// therefore create goroutines only up to the peak live count, not once per
// simulated thread.
// A Proc can instead be continuation-hosted (see cont.go): spawned with
// SpawnContAt/LaunchContAt it has no goroutine and a nil resume channel, and
// the event loop resumes it by calling its Stepper directly. The struct
// below is the entire park state of such a proc — on 64-bit it is under
// 200 bytes including its registry and event-queue footprint, which is what
// makes millions of concurrently parked threadlets tractable.
type Proc struct {
	eng     *Engine
	resume  chan struct{}
	runner  Runner
	stepper Stepper // non-nil exactly for continuation-hosted procs
	name    string
	done    bool

	// registered is true while the Proc sits in the engine's failure-dump
	// registry; compaction clears it so a recycled Proc re-registers.
	registered bool

	// Failure-dump bookkeeping, maintained on the park/wake paths with plain
	// field stores (no allocation, no formatting) so the hot path stays free.
	site     string // where the Proc last parked: "start", "wait", "join", a semaphore name, ...
	parkedAt Time   // when the Proc last gave up the control token
	wakeAt   Time   // pending dispatch time; valid only while hasWake
	hasWake  bool
}

// Runner runs the body of a simulated process. Machine layers implement it
// on their pooled thread types so a spawn allocates no per-spawn closure.
type Runner interface {
	RunProc(p *Proc)
}

// Name reports the name the Proc was spawned with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this Proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// SpawnAt creates (or recycles) a process running r and schedules its first
// dispatch at absolute time t: one dispatch event, queued now.
//
//emu:hotpath the pooled spawn path, allocation-free on a pool hit
func (e *Engine) SpawnAt(t Time, name string, r Runner) *Proc {
	p := e.acquireProc(name)
	p.runner = r
	e.procs++
	if !p.registered {
		e.register(p)
		p.registered = true
	}
	e.scheduleProc(t, p)
	return p
}

// LaunchAt creates (or recycles) a process running r whose first dispatch is
// scheduled when the launch event fires at absolute time t. This reproduces
// the event pattern of the closure-based deferred spawn it replaces —
// Schedule(t, func(){ Go(name, fn) }) — exactly: one event is queued now
// and fires at t; the dispatch event is queued at fire time, behind events
// already scheduled for t. Byte-for-byte the same dispatch order, without
// the per-spawn closure.
//
//emu:hotpath the deferred spawn path (machine spawnOn), allocation-free on a pool hit
func (e *Engine) LaunchAt(t Time, name string, r Runner) *Proc {
	p := e.acquireProc(name)
	p.runner = r
	e.procs++
	if !p.registered {
		e.register(p)
		p.registered = true
	}
	p.wakeAt = t
	p.hasWake = true
	e.schedule(t, event{fn: launchMark, proc: p})
	return p
}

// launchMark distinguishes a launch event (fn and proc both set) from a
// dispatch (proc only). It is never called.
var launchMark = func() {}

// acquireProc pops a finished Proc from the freelist — its goroutine is
// parked in procLoop awaiting recycling — or creates a fresh one.
//
//emu:hotpath pool hit is the steady state; the miss path is factored into newProc
func (e *Engine) acquireProc(name string) *Proc {
	if n := len(e.free); n > 0 {
		p := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		p.done = false
		p.name = name
		p.site = "start"
		p.parkedAt = e.now
		p.hasWake = false
		return p
	}
	return e.newProc(name)
}

// newProc allocates a Proc and starts its pooled host goroutine.
//
//emu:cold pool miss: runs once per pool-high-water proc, amortized away in steady state
func (e *Engine) newProc(name string) *Proc {
	if e.stop == nil {
		e.stop = make(chan struct{})
	}
	p := &Proc{eng: e, resume: make(chan struct{}), name: name, site: "start", parkedAt: e.now}
	go e.procLoop(p, e.stop)
	return p
}

// procLoop is the host goroutine of one pooled Proc. It waits for the
// process's first dispatch, runs the current body, then returns the Proc to
// the engine's freelist and parks until recycled — keeping the goroutine and
// its grown stack across simulated thread lifetimes. advance returning true
// means the freelisted Proc was already respawned and its new first dispatch
// fired while this goroutine still drove the event loop: the next body starts
// directly, with no channel handoff at all.
//
// stop is captured at creation: closing it (end of Run) releases every
// pooled goroutine. Procs parked mid-body when a run fails are woken by the
// teardown with e.aborted set: the resume panics with procAborted, the
// recover below catches it, and the goroutine acknowledges and exits instead
// of leaking on its resume channel.
func (e *Engine) procLoop(p *Proc, stop <-chan struct{}) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procAborted); ok {
				e.abortAck <- struct{}{}
				return
			}
			panic(r)
		}
	}()
	redispatched := false
	for {
		if !redispatched {
			select {
			case <-p.resume:
				if e.aborted {
					// Spawned but never dispatched when the run failed: the
					// body must not start during teardown.
					e.abortAck <- struct{}{}
					return
				}
			case <-stop:
				return
			}
		}
		p.runner.RunProc(p)
		p.done = true
		e.procs--
		// The token is still held here, so the freelist push is ordinary
		// engine-owned state mutation, race-free by the token discipline.
		e.free = append(e.free, p)
		redispatched = e.advance(p)
	}
}

// procAborted is the panic sentinel that unwinds a parked proc's goroutine
// through its body frames during failed-run teardown.
type procAborted struct{}

// yield gives up the control token: the Proc drives the engine loop until
// the token moves on, then blocks until re-dispatched. If this Proc's own
// wake-up is the next event, it continues immediately with no handoff. The
// caller must already have arranged for a future dispatch (a scheduled
// event or a registered waiter), otherwise the engine will report a
// deadlock.
//
//emu:hotpath a context switch is one channel handoff, nothing more
func (p *Proc) yield() {
	p.parkedAt = p.eng.now
	if p.eng.advance(p) {
		return
	}
	<-p.resume
	if p.eng.aborted {
		panic(procAborted{})
	}
}

// WaitUntil suspends the Proc until absolute simulated time t. Waiting for a
// time not after now returns immediately without yielding. When every
// pending event fires strictly after t, the dispatch this wait would
// schedule is provably the event the loop would pop next — the engine
// fast-forwards the clock in place instead of running the queue round trip
// (see Engine.fastForward).
//
//emu:hotpath
func (p *Proc) WaitUntil(t Time) {
	e := p.eng
	if t <= e.now {
		return
	}
	if e.fastForward(t) {
		return
	}
	p.site = "wait"
	e.scheduleProc(t, p)
	p.yield()
}

// Delay suspends the Proc for duration d.
func (p *Proc) Delay(d Time) {
	if d < 0 {
		panic("sim: negative delay")
	}
	p.WaitUntil(p.eng.now + d)
}

// Park suspends the Proc indefinitely; it resumes when another party calls
// Unpark. The caller must have registered itself somewhere an Unpark will
// come from before calling Park.
//
// Park leaves the generic "park" site in failure dumps; call sites should
// prefer ParkReason (the parksite analyzer flags bare Park calls).
//
//emu:hotpath
func (p *Proc) Park() { p.ParkReason("park") }

// ParkReason is Park with a site label recorded for failure dumps, so a
// deadlock report can say what each proc was blocked on. Synchronization
// primitives pass their own label ("join", the semaphore's name); callers of
// plain Park get the generic "park".
//
//emu:hotpath the park half of every context switch
func (p *Proc) ParkReason(site string) {
	p.site = site
	p.yield()
}

// Unpark schedules p to resume at the current time (after already-queued
// same-time events). It must be called exactly once per Park.
//
//emu:hotpath the wake half of every context switch
func (p *Proc) Unpark() {
	e := p.eng
	e.scheduleProc(e.now, p)
}

// UnparkAt schedules p to resume at absolute time t.
func (p *Proc) UnparkAt(t Time) {
	p.eng.scheduleProc(t, p)
}

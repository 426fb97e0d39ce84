package sim

// Proc is a simulated process. Its body is an explicit state machine (a
// Stepper) that the event loop resumes by a plain method call, so a
// context switch costs one dynamic dispatch and nothing else: no goroutine,
// no channel. The park state lives entirely in the Proc struct plus
// whatever the Stepper keeps, mirroring the hardware it models: an Emu
// threadlet context is a <200 B register file that a Gossamer core swaps
// in and out, not a stack. On 64-bit the struct below is under 200 bytes
// including its registry and event-queue footprint, which is what makes
// millions of concurrently parked threadlets tractable.
//
// Procs are pooled: when a body calls Exit, the Proc returns to the
// engine's freelist and is recycled by the next spawn, so spawn-heavy
// kernels — the paper's fine-grained Cilk trees — allocate procs only up
// to the peak live count, not once per simulated thread.
type Proc struct {
	eng     *Engine
	stepper Stepper
	name    string
	done    bool

	// registered is true while the Proc sits in the engine's failure-dump
	// registry; compaction clears it so a recycled Proc re-registers.
	registered bool

	// Failure-dump bookkeeping, maintained on the park/wake paths with plain
	// field stores (no allocation, no formatting) so the hot path stays free.
	site     string // where the Proc last parked: "start", "wait", "join", a semaphore name, ...
	parkedAt Time   // when the Proc last gave up control
	wakeAt   Time   // pending dispatch time; valid only while hasWake
	hasWake  bool
}

// Stepper is the body of a simulated process expressed as a resumable state
// machine. StepProc is called once per dispatch of p; it must either run the
// body to completion and call p.Exit(), or arrange a future wake-up (a
// scheduled sleep or a registered waiter) and return. Returning without
// either is a deadlock.
type Stepper interface {
	StepProc(p *Proc)
}

// Name reports the name the Proc was spawned with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this Proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// SpawnContAt creates (or recycles) a process driven by s and schedules its
// first dispatch at absolute time t: one dispatch event, queued now.
func (e *Engine) SpawnContAt(t Time, name string, s Stepper) *Proc {
	p := e.acquireProc(name)
	p.stepper = s
	e.procs++
	if !p.registered {
		e.register(p)
		p.registered = true
	}
	e.scheduleProc(t, p)
	return p
}

// LaunchContAt creates (or recycles) a process driven by s whose first
// dispatch is scheduled when the launch event fires at absolute time t: one
// event is queued now and fires at t, and the dispatch event is queued at
// fire time, behind events already scheduled for t. This is the event
// pattern of a deferred spawn, Schedule(t, func(){ SpawnContAt(now, ...) }),
// without the per-spawn closure.
func (e *Engine) LaunchContAt(t Time, name string, s Stepper) *Proc {
	p := e.acquireProc(name)
	p.stepper = s
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

// acquireProc pops a finished Proc from the freelist or allocates a fresh
// one.
// A pool hit is the steady state.
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

// newProc allocates a Proc.
func (e *Engine) newProc(name string) *Proc {
	return &Proc{eng: e, name: name, site: "start", parkedAt: e.now}
}

// Exit finishes a process. The Stepper must call it exactly once, when its
// body has run to completion, and must not touch p afterwards: the Proc
// returns to the freelist and may be recycled by the very next spawn.
func (p *Proc) Exit() {
	p.done = true
	p.eng.procs--
	p.eng.free = append(p.eng.free, p)
}

// SleepUntil suspends the process until absolute simulated time t.
// parked=false means the wait completed in place (t not after now, or the
// clock fast-forwarded; see Engine.fastForward) and the body continues;
// parked=true means a dispatch was scheduled and StepProc must return, to be
// called again at t.
func (p *Proc) SleepUntil(t Time) (parked bool) {
	e := p.eng
	if t <= e.now {
		return false
	}
	if e.fastForward(t) {
		return false
	}
	p.site = "wait"
	p.parkedAt = e.now
	e.scheduleProc(t, p)
	return true
}

// Suspend records the park site and park time of a process about to return
// from StepProc awaiting an Unpark (from a semaphore grant, a join
// completion, ...), so a deadlock report can say what each proc was blocked
// on. Giving up control is simply returning from StepProc.
func (p *Proc) Suspend(site string) {
	p.site = site
	p.parkedAt = p.eng.now
}

// Unpark schedules p to resume at the current time (after already-queued
// same-time events). It must be called exactly once per Suspend.
func (p *Proc) Unpark() {
	e := p.eng
	e.scheduleProc(e.now, p)
}

package sim

// Continuation-form processes: the scalable alternative to goroutine-hosted
// Procs. A continuation proc has no goroutine and no resume channel — its
// body is an explicit state machine (a Stepper) that the event loop resumes
// by a plain method call, so a context switch costs one dynamic dispatch
// instead of a runtime channel handoff. The park state lives entirely in the
// Proc struct plus whatever the Stepper keeps, mirroring the hardware it
// models: an Emu threadlet context is a <200 B register file that a Gossamer
// core swaps in and out, not a stack.
//
// Both kinds of proc share every scheduling path (scheduleProc, launch
// events, fastForward), so a continuation port of a kernel that performs the
// identical sequence of waits and wakes produces a bit-identical
// (at, scheduling order) event stream — the byte-identical-figures contract
// holds across engines.

// Stepper is the continuation-form analogue of Runner: the body of a
// simulated process expressed as a resumable state machine. StepProc is
// called once per dispatch of p, with the control token held; it must either
// run the body to completion and call p.Exit(), or arrange a future wake-up
// (a scheduled sleep or a registered waiter) and return. Returning without
// either is a deadlock, exactly as for a goroutine proc that parks with no
// waker.
type Stepper interface {
	StepProc(p *Proc)
}

// SpawnContAt creates (or recycles) a continuation process driven by s and
// schedules its first dispatch at absolute time t. It is SpawnAt without the
// goroutine: the event pattern — one dispatch event, queued now — is
// identical.
//
//emu:hotpath the continuation spawn path, allocation-free on a pool hit
func (e *Engine) SpawnContAt(t Time, name string, s Stepper) *Proc {
	p := e.acquireContProc(name)
	p.stepper = s
	e.procs++
	if !p.registered {
		e.register(p)
		p.registered = true
	}
	e.scheduleProc(t, p)
	return p
}

// LaunchContAt is LaunchAt for continuation processes: the first dispatch is
// scheduled when the launch event fires at absolute time t, queued at fire
// time exactly like the goroutine deferred spawn.
//
//emu:hotpath the continuation deferred spawn path, allocation-free on a pool hit
func (e *Engine) LaunchContAt(t Time, name string, s Stepper) *Proc {
	p := e.acquireContProc(name)
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

// acquireContProc pops a finished continuation Proc from its freelist or
// allocates a fresh one. Continuation procs never mix with the goroutine
// pool: a pooled goroutine proc carries a live resume channel and a parked
// host goroutine, neither of which a continuation proc has.
//
//emu:hotpath pool hit is the steady state; the miss path is factored into newContProc
func (e *Engine) acquireContProc(name string) *Proc {
	if n := len(e.freeCont); n > 0 {
		p := e.freeCont[n-1]
		e.freeCont[n-1] = nil
		e.freeCont = e.freeCont[:n-1]
		p.done = false
		p.name = name
		p.site = "start"
		p.parkedAt = e.now
		p.hasWake = false
		return p
	}
	return e.newContProc(name)
}

// newContProc allocates a continuation Proc: no channel, no goroutine.
func (e *Engine) newContProc(name string) *Proc {
	return &Proc{eng: e, name: name, site: "start", parkedAt: e.now}
}

// Exit finishes a continuation process. The Stepper must call it exactly
// once, when its body has run to completion, and must not touch p
// afterwards: the Proc returns to the freelist and may be recycled by the
// very next spawn.
//
//emu:hotpath the continuation thread-exit path
func (p *Proc) Exit() {
	p.done = true
	p.eng.procs--
	p.eng.freeCont = append(p.eng.freeCont, p)
}

// SleepUntil suspends a continuation process until absolute simulated time
// t. It is WaitUntil restated for steppers: parked=false means the wait
// completed in place (t not after now, or the clock fast-forwarded) and the
// body continues; parked=true means a dispatch was scheduled and StepProc
// must return, to be called again at t.
//
//emu:hotpath
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

// Suspend records the park site and park time of a continuation process
// about to return from StepProc awaiting an Unpark (from a semaphore grant,
// a join completion, ...). It is the bookkeeping half of ParkReason; the
// "give up the token" half is simply returning from StepProc.
//
//emu:hotpath the park half of a continuation context switch
func (p *Proc) Suspend(site string) {
	p.site = site
	p.parkedAt = p.eng.now
}

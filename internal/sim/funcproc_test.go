package sim

// The closure form of SpawnAt the engine tests are written in. No model
// spawns closures: every machine layer hosts its threads on a pooled Runner
// or a continuation Stepper.

// funcRunner adapts a plain function to Runner.
type funcRunner func(*Proc)

func (f funcRunner) RunProc(p *Proc) { f(p) }

// Go creates a process and schedules its first dispatch at the current time
// (plus any queued same-time events ahead of it). fn runs to completion in
// simulation order; when it returns, the process is finished.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// GoAt is like Go but delays the first dispatch until absolute time t.
func (e *Engine) GoAt(t Time, name string, fn func(*Proc)) *Proc {
	return e.SpawnAt(t, name, funcRunner(fn))
}

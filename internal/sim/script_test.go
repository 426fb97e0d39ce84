package sim

// The form of a proc body the engine tests are written in: a script of
// steps run in order, each issuing at most one blocking operation and
// returning that operation's parked result. The proc exits after its last
// step. No model spawns scripts: every machine layer hosts its threads on
// its own Stepper.
type script []func(p *Proc) (parked bool)

func (s *script) StepProc(p *Proc) {
	for len(*s) > 0 {
		op := (*s)[0]
		*s = (*s)[1:]
		if op(p) {
			return
		}
	}
	p.Exit()
}

// Go spawns a script proc whose first dispatch is at the current time
// (after any queued same-time events).
func (e *Engine) Go(name string, steps ...func(*Proc) bool) *Proc {
	return e.GoAt(e.now, name, steps...)
}

// GoAt is Go with the first dispatch at absolute time t.
func (e *Engine) GoAt(t Time, name string, steps ...func(*Proc) bool) *Proc {
	s := script(steps)
	return e.SpawnContAt(t, name, &s)
}

// do is a step that runs f and never parks.
func do(f func(p *Proc)) func(*Proc) bool {
	return func(p *Proc) bool { f(p); return false }
}

// delay is a step that sleeps for d from the time it runs.
func delay(d Time) func(*Proc) bool {
	return func(p *Proc) bool { return p.SleepUntil(p.Now() + d) }
}

// park is a step that suspends at site until some other party Unparks.
func park(site string) func(*Proc) bool {
	return func(p *Proc) bool { p.Suspend(site); return true }
}

// times repeats steps n times.
func times(n int, steps ...func(*Proc) bool) []func(*Proc) bool {
	var out []func(*Proc) bool
	for i := 0; i < n; i++ {
		out = append(out, steps...)
	}
	return out
}

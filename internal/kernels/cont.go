package kernels

import (
	"emuchick/internal/machine"
	"emuchick/internal/sim"
)

// The root-body plumbing every kernel shares. Each kernel body is a
// machine.CBody state machine hosted on the continuation engine, defined in
// its kernel's own file and pinned by the golden digests in golden_test.go.
// What they have in common lives here: the driver protocol of a resumable
// spawn tree, the timedRoot that measures one, and the fanout that spawns a
// fixed list of bodies.

// driver is a resumable spawn tree with the cilk Drive protocol: parked=true
// means the enclosing Step must return; parked=false means the tree has been
// spawned and joined.
type driver interface {
	Drive(t *machine.CThread) (parked bool)
}

// timedRoot wraps a resumable spawn tree as a run's root body and records
// the elapsed time from body start to the tree's final join.
type timedRoot struct {
	drive   driver
	out     *sim.Time
	started bool
	done    bool
	t0      sim.Time
}

//emu:nohandoff CBody contract: park state, never the goroutine
func (r *timedRoot) Step(t *machine.CThread) bool {
	if !r.started {
		r.started = true
		r.t0 = t.Now()
	}
	if !r.done {
		//lint:allow nohandoff drive is a cilk Workers, Grouped or ParFor tree or a fanout, all pure CThread state machines
		if r.drive.Drive(t) {
			return false
		}
		r.done = true
		*r.out = t.Now() - r.t0
	}
	return true
}

// fanout spawns each of its bodies on its nodelet, in order, then syncs —
// the root of the ping-pong, GUPS, SpMV-2D and CSX kernels.
type fanout struct {
	nls    []int
	bodies []machine.CBody
	k      int
	synced bool
}

func (f *fanout) add(nl int, body machine.CBody) {
	f.nls = append(f.nls, nl)
	f.bodies = append(f.bodies, body)
}

// Drive advances the fan-out; see timedRoot.
//
//emu:nohandoff CBody contract: park state, never the goroutine
func (f *fanout) Drive(t *machine.CThread) (parked bool) {
	for f.k < len(f.bodies) {
		k := f.k
		f.k++
		body := f.bodies[k]
		f.bodies[k] = nil // the child owns it now
		if t.CSpawnAt(f.nls[k], body) {
			return true
		}
	}
	if !f.synced {
		f.synced = true
		return t.CSync()
	}
	return false
}

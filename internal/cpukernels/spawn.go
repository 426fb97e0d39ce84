package cpukernels

import "emuchick/internal/xeon"

// The Cilk spawn skeletons the kernels share, as resumable state machines
// over xeon.CThread. A recursive spawn helper becomes a driver: the
// caller-side half of the recursion is a loop that shrinks its range, and
// the spawned-side half is a task that drives the delegated subrange and
// then syncs. These mirror internal/cilk rather than share it because the
// two machines' threads have different body types and spawn/sync methods,
// and a Xeon tree has no nodelets and no remote spawn to share.

// driver is a resumable spawn loop: Drive reports parked=true while the
// enclosing Step must return, and false once its whole range is spawned
// (or, for parFor, run).
type driver interface {
	Drive(t *xeon.CThread) (parked bool)
}

// task drives a spawn loop to completion and then syncs: the body of every
// spawned coordinator, and of each run's root thread. Every thread descends
// from the root and is joined by it, so the simulated time System.Run
// reports is the root task's elapsed time.
type task struct {
	d      driver
	synced bool
}

func (k *task) Step(t *xeon.CThread) bool {
	if !k.synced {
		if k.d.Drive(t) {
			return false
		}
		k.synced = true
		return !t.Sync()
	}
	return true
}

// spawnTree launches one worker per id in [lo, hi) with a recursive binary
// spawn tree (the Cilk loop skeleton), so launching W workers costs
// O(log W) critical-path spawns rather than W: the lower half goes to a
// spawned coordinator, the upper half is split again in place, and a single
// id is spawned as its worker.
type spawnTree struct {
	lo, hi int
	worker func(id int) xeon.CBody
}

func (s *spawnTree) Drive(t *xeon.CThread) (parked bool) {
	for {
		switch n := s.hi - s.lo; {
		case n <= 0:
			return false
		case n == 1:
			id := s.lo
			s.lo = s.hi
			if t.Spawn(s.worker(id)) {
				return true
			}
		default:
			mid := s.lo + n/2
			lower := &spawnTree{lo: s.lo, hi: mid, worker: s.worker}
			s.lo = mid
			if t.Spawn(&task{d: lower}) {
				return true
			}
		}
	}
}

// parFor splits [lo, hi) into tasks of at most grain iterations, spawning
// each lower half as a coordinator and splitting the upper half in place,
// then runs the final range inline through leaf — a Cilk loop built from
// cilk_spawn, where every task pays the runtime's spawn cost.
type parFor struct {
	lo, hi, grain int
	leaf          func(lo, hi int) xeon.CBody
	body          xeon.CBody // the inline leaf, once the range is split down
}

func (f *parFor) Drive(t *xeon.CThread) (parked bool) {
	for f.body == nil {
		n := f.hi - f.lo
		if n <= f.grain {
			f.body = f.leaf(f.lo, f.hi)
			break
		}
		mid := f.lo + n/2
		lower := &parFor{lo: f.lo, hi: mid, grain: f.grain, leaf: f.leaf}
		f.lo = mid
		if t.Spawn(&task{d: lower}) {
			return true
		}
	}
	return !f.body.Step(t)
}

// fanout spawns its bodies in order, one child each.
type fanout struct {
	bodies []xeon.CBody
}

func (f *fanout) Drive(t *xeon.CThread) (parked bool) {
	for len(f.bodies) > 0 {
		body := f.bodies[0]
		f.bodies = f.bodies[1:]
		if t.Spawn(body) {
			return true
		}
	}
	return false
}

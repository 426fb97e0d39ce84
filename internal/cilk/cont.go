package cilk

import (
	"fmt"

	"emuchick/internal/machine"
	"emuchick/internal/sim"
)

// The spawn trees as resumable state machines over machine.CThread: Workers
// places workers with one of the four strategies, ParFor splits a range
// with a grain, Grouped places workers on given nodelets, Fanout spawns a
// fixed list of bodies, and Timed measures any of them. Each is a Driver,
// driven from the enclosing body's Step. The recursive tree shapes become
// iterative drivers: the caller-side half of each recursion is a loop that
// shrinks its range, and the spawned-side half is a coordinator CBody
// carrying the subrange. Workers and ParFor replaced goroutine trees and
// reproduce their event streams bit for bit (golden_test.go).

// Driver is a resumable spawn tree. Call Drive from the enclosing body's
// Step each time it is resumed: parked=true means the Step must return
// false; parked=false means the whole tree has been spawned AND joined, and
// the body continues past it. Once finished, Drive keeps reporting
// parked=false without doing anything.
type Driver interface {
	Drive(t *machine.CThread) (parked bool)
}

// contSpawner is one resumable caller-side spawn loop. drive issues spawns
// until it parks (parked=true: the enclosing Step must return) or until
// every spawn in its range has been issued (parked=false).
type contSpawner interface {
	drive(t *machine.CThread, mk func(int) machine.CBody) (parked bool)
}

// contCoord is the spawned-side coordinator shape shared by every strategy:
// run a spawner over the delegated subrange, then an explicit sync.
type contCoord struct {
	s      contSpawner
	mk     func(int) machine.CBody
	synced bool
}

func (c *contCoord) Step(t *machine.CThread) bool {
	if !c.synced {
		if c.s.drive(t, c.mk) {
			return false
		}
		c.synced = true
		if t.CSync() {
			return false
		}
	}
	return true
}

// contSerial is SerialSpawn's caller loop: workers local spawns in id
// order.
type contSerial struct{ w, workers int }

func (s *contSerial) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for s.w < s.workers {
		w := s.w
		s.w++
		if t.CSpawn(mk(w)) {
			return true
		}
	}
	return false
}

// contRange is RecursiveSpawn's local binary tree: spawn a coordinator for
// the lower half, then descend into the upper half in place.
type contRange struct{ lo, hi int }

func (r *contRange) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for {
		switch n := r.hi - r.lo; {
		case n <= 0:
			return false
		case n == 1:
			w := r.lo
			r.lo = r.hi
			if t.CSpawn(mk(w)) {
				return true
			}
		default:
			mid := r.lo + n/2
			lower := contRange{lo: r.lo, hi: mid}
			r.lo = mid
			if t.CSpawn(&contCoord{s: &lower, mk: mk}) {
				return true
			}
		}
	}
}

// contIDs is the local binary tree over an explicit id list.
type contIDs struct{ ids []int }

func (s *contIDs) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for {
		switch n := len(s.ids); {
		case n == 0:
			return false
		case n == 1:
			id := s.ids[0]
			s.ids = nil
			if t.CSpawn(mk(id)) {
				return true
			}
		default:
			mid := n / 2
			left := contIDs{ids: s.ids[:mid]}
			s.ids = s.ids[mid:]
			if t.CSpawn(&contCoord{s: &left, mk: mk}) {
				return true
			}
		}
	}
}

// contSerialRemote is SerialRemoteSpawn's caller loop: one remote spawn per
// nodelet, each hosting a serial per-nodelet coordinator.
type contSerialRemote struct{ nl, nodelets, workers int }

func (s *contSerialRemote) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for s.nl < s.nodelets && s.nl < s.workers {
		nl := s.nl
		s.nl++
		coord := &contSerialNodelet{w: nl, step: s.nodelets, workers: s.workers}
		if t.CSpawnAt(nl, &contCoord{s: coord, mk: mk}) {
			return true
		}
	}
	return false
}

// contSerialNodelet is the per-nodelet serial spawner of SerialRemoteSpawn:
// workers nl, nl+nodelets, nl+2*nodelets, ...
type contSerialNodelet struct{ w, step, workers int }

func (s *contSerialNodelet) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for s.w < s.workers {
		w := s.w
		s.w += s.step
		if t.CSpawn(mk(w)) {
			return true
		}
	}
	return false
}

// contNodelets is RecursiveRemoteSpawn's remote tree: spawn the upper half
// of the nodelet range at its first nodelet, descend into the lower half.
type contNodelets struct{ nodelets, nlo, nhi, workers int }

func (s *contNodelets) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for {
		switch n := s.nhi - s.nlo; {
		case n <= 0:
			return false
		case n == 1:
			nl := s.nlo
			s.nlo = s.nhi
			coord := &contNodeletIDs{nl: nl, step: s.nodelets, workers: s.workers}
			if t.CSpawnAt(nl, &contCoord{s: coord, mk: mk}) {
				return true
			}
		default:
			mid := s.nlo + n/2
			upper := contNodelets{nodelets: s.nodelets, nlo: mid, nhi: s.nhi, workers: s.workers}
			s.nhi = mid
			if t.CSpawnAt(mid, &contCoord{s: &upper, mk: mk}) {
				return true
			}
		}
	}
}

// contNodeletIDs is the leaf coordinator of RecursiveRemoteSpawn: build the
// nodelet's worker-id list, then a local recursive tree over it.
type contNodeletIDs struct {
	nl, step, workers int
	built             bool
	ids               contIDs
}

func (s *contNodeletIDs) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	if !s.built {
		s.built = true
		for w := s.nl; w < s.workers; w += s.step {
			s.ids.ids = append(s.ids.ids, w)
		}
	}
	return s.ids.drive(t, mk)
}

// contGroups is Grouped's caller side: a recursive remote-spawn tree over the
// populated nodelet list. The upper half of the list goes to a coordinator
// spawned at its first nodelet, the lower half is split again in place, and
// each single nodelet gets a coordinator that spawns its ids with a local
// binary tree.
type contGroups struct {
	groups [][]int
	nls    []int
}

func (s *contGroups) drive(t *machine.CThread, mk func(int) machine.CBody) bool {
	for {
		switch n := len(s.nls); {
		case n == 0:
			return false
		case n == 1:
			nl := s.nls[0]
			s.nls = nil
			if t.CSpawnAt(nl, &contCoord{s: &contIDs{ids: s.groups[nl]}, mk: mk}) {
				return true
			}
		default:
			mid := n / 2
			right := contGroups{groups: s.groups, nls: s.nls[mid:]}
			s.nls = s.nls[:mid]
			if t.CSpawnAt(right.nls[0], &contCoord{s: &right, mk: mk}) {
				return true
			}
		}
	}
}

// Workers creates workers threadlets spread across nodelets with one of the
// four strategies and joins them. Worker w runs the body mk(w) and belongs
// to nodelet w mod nodelets; with a non-remote strategy every worker is
// created on the caller's nodelet and must migrate to its data on first
// touch. Construct with NewWorkers and drive it as a Driver.
type Workers struct {
	nodelets, workers int
	strat             Strategy
	mk                func(int) machine.CBody
	spawner           contSpawner
	phase             uint8 // 0 validate, 1 spawn, 2 sync issued, 3 done
}

// NewWorkers prepares workers bodies built by mk(w), spread over nodelets
// with the given strategy. No workers (workers <= 0) is an empty tree.
func NewWorkers(nodelets, workers int, strat Strategy, mk func(int) machine.CBody) *Workers {
	return &Workers{nodelets: nodelets, workers: workers, strat: strat, mk: mk}
}

// Drive advances the spawn tree; see Driver for the protocol.
func (ws *Workers) Drive(t *machine.CThread) (parked bool) {
	for {
		switch ws.phase {
		case 0:
			if ws.workers <= 0 {
				ws.phase = 3
				return false
			}
			if ws.nodelets <= 0 || ws.nodelets > t.System().Nodelets() {
				panic(fmt.Sprintf("cilk: %d nodelets requested of %d", ws.nodelets, t.System().Nodelets()))
			}
			switch ws.strat {
			case SerialSpawn:
				ws.spawner = &contSerial{workers: ws.workers}
			case RecursiveSpawn:
				ws.spawner = &contRange{hi: ws.workers}
			case SerialRemoteSpawn:
				ws.spawner = &contSerialRemote{nodelets: ws.nodelets, workers: ws.workers}
			case RecursiveRemoteSpawn:
				ws.spawner = &contNodelets{nodelets: ws.nodelets, nhi: min(ws.nodelets, ws.workers), workers: ws.workers}
			default:
				panic("cilk: unknown strategy")
			}
			ws.phase = 1
		case 1:
			if ws.spawner.drive(t, ws.mk) {
				return true
			}
			ws.phase = 2
			if t.CSync() {
				return true
			}
		case 2:
			ws.phase = 3
		case 3:
			return false
		}
	}
}

// ParFor is a grain-size parallel loop, the cilk_spawn-built analogue of
// cilk_for with a grain-size clause — the knob the paper sweeps for SpMV
// (16 iterations per spawn best on Emu, 16384 on the Xeon) — and a Driver. The caller's thread splits its range with a
// recursive local spawn tree — each lower half goes to a spawned
// coordinator, the upper half is split again in place — then runs the final
// range of at most grain iterations inline through the leaf body, and
// syncs. A ParFor is also the CBody of those spawned coordinators, which do
// the same over their half.
type ParFor struct {
	lo, hi, grain int
	leaf          func(lo, hi int) machine.CBody
	body          machine.CBody // the inline leaf, once the range is split down
	phase         uint8         // 0 split, 1 leaf, 2 sync issued, 3 done
}

// NewParallelFor prepares a parallel loop over [0, n) with at most grain
// iterations per leaf (grain <= 0 means 1); leaf(lo, hi) builds the body that runs
// iterations [lo, hi) on whichever thread reaches them.
func NewParallelFor(n, grain int, leaf func(lo, hi int) machine.CBody) *ParFor {
	if grain <= 0 {
		grain = 1
	}
	f := &ParFor{hi: n, grain: grain, leaf: leaf}
	if n <= 0 {
		f.phase = 3 // an empty loop returns at once, without a sync
	}
	return f
}

// Drive advances the loop; see Driver for the protocol.
func (f *ParFor) Drive(t *machine.CThread) (parked bool) {
	for {
		switch f.phase {
		case 0:
			if n := f.hi - f.lo; n > f.grain {
				mid := f.lo + n/2
				lower := &ParFor{lo: f.lo, hi: mid, grain: f.grain, leaf: f.leaf}
				f.lo = mid
				if t.CSpawn(lower) {
					return true
				}
				continue
			}
			f.body = f.leaf(f.lo, f.hi)
			f.phase = 1
		case 1:
			if !f.body.Step(t) {
				return true
			}
			f.body = nil
			f.phase = 2
			if t.CSync() {
				return true
			}
		case 2:
			f.phase = 3
		case 3:
			return false
		}
	}
}

// Step runs a spawned coordinator's half of the loop.
func (f *ParFor) Step(t *machine.CThread) bool {
	return !f.Drive(t)
}

// Grouped creates one worker per id in groups, where groups[nl] lists the
// worker ids that must start on nodelet nl; it is a Driver. Placement uses a recursive remote-spawn tree over the nodelets
// followed by local recursive trees — the paper's recursive_remote_spawn
// shape — so launching W workers costs O(log W) critical-path spawns instead
// of W. Kernels whose workers have data-dependent home nodelets (pointer
// chasing chains) use this instead of Workers' round-robin placement.
type Grouped struct {
	spawner *contGroups
	mk      func(int) machine.CBody
	phase   uint8
}

// NewGrouped prepares a Grouped spawn tree over groups[nl] = worker ids homed
// on nodelet nl; mk(id) builds worker id's body.
func NewGrouped(groups [][]int, mk func(int) machine.CBody) *Grouped {
	var nls []int
	for nl, ids := range groups {
		if len(ids) > 0 {
			nls = append(nls, nl)
		}
	}
	return &Grouped{spawner: &contGroups{groups: groups, nls: nls}, mk: mk}
}

// Drive advances the grouped spawn tree; see Driver for the protocol.
func (g *Grouped) Drive(t *machine.CThread) (parked bool) {
	for {
		switch g.phase {
		case 0:
			if g.spawner.drive(t, g.mk) {
				return true
			}
			g.phase = 1
			if t.CSync() {
				return true
			}
		case 1:
			g.phase = 2
		case 2:
			return false
		}
	}
}

// Fanout spawns each of its bodies on its nodelet, in the order they were
// added, then syncs. The zero value is an empty fan-out, which only syncs.
type Fanout struct {
	nls    []int
	bodies []machine.CBody
	k      int
	synced bool
}

// Add queues body to be spawned on nodelet nl.
func (f *Fanout) Add(nl int, body machine.CBody) {
	f.nls = append(f.nls, nl)
	f.bodies = append(f.bodies, body)
}

// Drive advances the fan-out; see Driver for the protocol.
func (f *Fanout) Drive(t *machine.CThread) (parked bool) {
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

// Timed drives a tree and stores in *out the simulated time from its first
// Drive to its final join. It is a Driver and, through Step, a body that
// can be a run's root.
type Timed struct {
	tree  Driver
	out   *sim.Time
	t0    sim.Time
	phase uint8 // 0 not started, 1 driving, 2 done
}

// NewTimed prepares a measured run of tree.
func NewTimed(tree Driver, out *sim.Time) *Timed {
	return &Timed{tree: tree, out: out}
}

// Drive advances the tree; see Driver for the protocol.
func (r *Timed) Drive(t *machine.CThread) (parked bool) {
	switch r.phase {
	case 0:
		r.t0 = t.Now()
		r.phase = 1
		fallthrough
	case 1:
		if r.tree.Drive(t) {
			return true
		}
		*r.out = t.Now() - r.t0
		r.phase = 2
	}
	return false
}

// Step runs the measured tree as a body.
func (r *Timed) Step(t *machine.CThread) bool {
	return !r.Drive(t)
}

package cilk

import (
	"fmt"

	"emuchick/internal/machine"
)

// Continuation-form spawn trees: SpawnWorkers and ParallelFor restated as
// resumable state machines over machine.CThread, plus Grouped, which has no
// goroutine form. Workers and ParFor perform the IDENTICAL sequence of
// spawn/sync operations as their goroutine twins — same tree shape, same
// spawn order, same explicit syncs — so a kernel ported to the continuation
// engine produces a bit-identical event stream. The recursive helpers
// (spawnRangeLocal and friends) become iterative drivers: the caller-side half
// of each recursion is a loop that shrinks its range, and the spawned-side
// half is a coordinator CBody carrying the subrange.

// contSpawner is one resumable caller-side spawn loop. drive issues spawns
// until it parks (parked=true: the enclosing Step must return) or until
// every spawn in its range has been issued (parked=false).
type contSpawner interface {
	drive(t *machine.CThread, mk func(int) machine.CBody) (parked bool)
}

// contCoord is the spawned-side coordinator shape shared by every strategy:
// run a spawner over the delegated subrange, then an explicit sync — the
// continuation of the goroutine closures `func(c) { spawnXxx(c, ...); c.Sync() }`.
type contCoord struct {
	s      contSpawner
	mk     func(int) machine.CBody
	synced bool
}

//emu:nohandoff CBody contract: park state, never the goroutine
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

// contSerial mirrors SerialSpawn's caller loop: workers local spawns in id
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

// contRange mirrors spawnRangeLocal's caller side: spawn a coordinator for
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

// contIDs mirrors spawnIDsLocal's caller side over an explicit id list.
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

// contSerialRemote mirrors SerialRemoteSpawn's caller loop: one remote spawn
// per nodelet, each hosting a serial per-nodelet coordinator.
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

// contNodelets mirrors spawnNodeletsRecursive's caller side: spawn the upper
// half of the nodelet range at its first nodelet, descend into the lower half.
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

// Workers is SpawnWorkers for the continuation engine: construct with
// NewWorkers, then call Drive from the body's Step each time it is resumed.
// Drive reports parked=true when the enclosing Step must return false; once
// it reports parked=false the whole tree has been spawned AND joined, and
// the body continues past it — exactly where the goroutine SpawnWorkers call
// would have returned.
type Workers struct {
	nodelets, workers int
	strat             Strategy
	mk                func(int) machine.CBody
	spawner           contSpawner
	phase             uint8 // 0 validate, 1 spawn, 2 sync issued, 3 done
}

// NewWorkers prepares a continuation-form SpawnWorkers: workers bodies built
// by mk(w), spread over nodelets with the given strategy.
func NewWorkers(nodelets, workers int, strat Strategy, mk func(int) machine.CBody) *Workers {
	return &Workers{nodelets: nodelets, workers: workers, strat: strat, mk: mk}
}

// Drive advances the spawn tree; see the type comment for the protocol.
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

// ParFor is ParallelFor for the continuation engine, with the same Drive
// protocol as Workers. The caller's thread splits its range exactly as
// parForRange does — each lower half goes to a spawned coordinator, the upper
// half is split again in place — then runs the final range of at most grain
// iterations inline through the leaf body, and syncs. A ParFor is also the
// CBody of those spawned coordinators, which do the same over their half.
type ParFor struct {
	lo, hi, grain int
	leaf          func(lo, hi int) machine.CBody
	body          machine.CBody // the inline leaf, once the range is split down
	phase         uint8         // 0 split, 1 leaf, 2 sync issued, 3 done
}

// NewParallelFor prepares a continuation-form ParallelFor over [0, n) with at
// most grain iterations per leaf; leaf(lo, hi) builds the body that runs
// iterations [lo, hi) on whichever thread reaches them.
func NewParallelFor(n, grain int, leaf func(lo, hi int) machine.CBody) *ParFor {
	if grain <= 0 {
		grain = 1
	}
	f := &ParFor{hi: n, grain: grain, leaf: leaf}
	if n <= 0 {
		f.phase = 3 // ParallelFor returns at once, without a sync
	}
	return f
}

// Drive advances the loop; see Workers.Drive for the protocol.
//
//emu:nohandoff CBody contract: park state, never the goroutine
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
			//lint:allow nohandoff leaf is the caller's constructor for its leaf state machine; it only allocates
			f.body = f.leaf(f.lo, f.hi)
			f.phase = 1
		case 1:
			//lint:allow nohandoff body is the kernel's leaf CBody, annotated //emu:nohandoff at its own Step
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
//
//emu:nohandoff CBody contract: park state, never the goroutine
func (f *ParFor) Step(t *machine.CThread) bool {
	//lint:allow nohandoff Drive's one dynamic call is the leaf constructor, allowed at its site
	return !f.Drive(t)
}

// Grouped creates one worker per id in groups, where groups[nl] lists the
// worker ids that must start on nodelet nl, with the same Drive protocol as
// Workers. Placement uses a recursive remote-spawn tree over the nodelets
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

// Drive advances the grouped spawn tree; see Workers.Drive for the protocol.
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

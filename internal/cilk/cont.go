package cilk

import (
	"fmt"

	"emuchick/internal/machine"
	"emuchick/internal/sim"
)

// The spawn trees as resumable state machines over machine.CThread, each a
// Driver driven from the enclosing body's Step. The paper's four strategies
// are a 2×2 — spawn in order or as a binary tree, on the caller's nodelet or
// first onto each nodelet (Strategy.Remote) — built from one coordinator and
// two spawners: coord runs a spawner, then syncs; local spawns a list of ids
// on the caller's nodelet; remote places on each listed nodelet a local over
// that nodelet's ids. Workers is local over 0…W−1 or remote over the
// round-robin groups {nl, nl+N, …}, Grouped is recursive remote over the
// caller's groups, and ParFor is a coord whose spawner splits its range and
// then runs the leaf inline. Fanout spawns a fixed list of bodies, and Timed
// measures any tree. The trees reproduce the event streams of the goroutine
// trees they replaced bit for bit (golden_test.go).

// Driver is a resumable spawn tree. Call Drive from the enclosing body's
// Step each time it is resumed: parked=true means the Step must return
// false; parked=false means the whole tree has been spawned AND joined, and
// the body continues past it. Once finished, Drive keeps reporting
// parked=false without doing anything.
type Driver interface {
	Drive(t *machine.CThread) (parked bool)
}

// spawner is one resumable caller-side spawn loop. spawn issues spawns
// until one parks (parked=true: the enclosing Step must return) or until
// every spawn has been issued (parked=false).
type spawner interface {
	spawn(t *machine.CThread) (parked bool)
}

// coord runs its spawner s, then an explicit sync. Each spawner embeds the
// coord that runs it, with s pointing back at the spawner, so a spawned
// subtree is one allocation. A nil s means nothing is left to do: the sync
// is issued, or the tree is empty.
type coord struct {
	s spawner
}

// Drive advances the tree; see Driver for the protocol.
func (c *coord) Drive(t *machine.CThread) (parked bool) {
	if c.s == nil {
		return false
	}
	if c.s.spawn(t) {
		return true
	}
	c.s = nil
	return t.CSync()
}

// Step runs a spawned subtree as a body.
func (c *coord) Step(t *machine.CThread) bool {
	return !c.Drive(t)
}

// local spawns mk(id) for each of its ids on the caller's nodelet: in
// order, or as a binary tree that hands the lower half to a spawned local
// and splits the upper half again in place.
type local struct {
	coord
	ids       []int
	recursive bool
	mk        func(int) machine.CBody
}

func newLocal(ids []int, recursive bool, mk func(int) machine.CBody) *local {
	l := &local{ids: ids, recursive: recursive, mk: mk}
	l.s = l
	return l
}

func (l *local) spawn(t *machine.CThread) bool {
	for n := len(l.ids); n > 0; n = len(l.ids) {
		var body machine.CBody
		if l.recursive && n > 1 {
			body = newLocal(l.ids[:n/2], true, l.mk)
			l.ids = l.ids[n/2:]
		} else {
			body = l.mk(l.ids[0])
			l.ids = l.ids[1:]
		}
		if t.CSpawn(body) {
			return true
		}
	}
	return false
}

// remote spawns on each nodelet nl of nls a local over groups[nl], recursive
// when remote is: in list order, or as a binary tree that sends the upper
// half of nls to a remote on that half's first nodelet and splits the lower
// half again in place.
type remote struct {
	coord
	groups    [][]int
	nls       []int
	recursive bool
	mk        func(int) machine.CBody
}

func newRemote(groups [][]int, nls []int, recursive bool, mk func(int) machine.CBody) *remote {
	r := &remote{groups: groups, nls: nls, recursive: recursive, mk: mk}
	r.s = r
	return r
}

func (r *remote) spawn(t *machine.CThread) bool {
	for n := len(r.nls); n > 0; n = len(r.nls) {
		nl := r.nls[0]
		var body machine.CBody
		if r.recursive && n > 1 {
			upper := r.nls[n/2:]
			nl, r.nls = upper[0], r.nls[:n/2]
			body = newRemote(r.groups, upper, true, r.mk)
		} else {
			r.nls = r.nls[1:]
			body = newLocal(r.groups[nl], r.recursive, r.mk)
		}
		if t.CSpawnAt(nl, body) {
			return true
		}
	}
	return false
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
	tree              Driver // the strategy's spawner, built on the first Drive
}

// NewWorkers prepares workers bodies built by mk(w), spread over nodelets
// with the given strategy. No workers (workers <= 0) is an empty tree.
func NewWorkers(nodelets, workers int, strat Strategy, mk func(int) machine.CBody) *Workers {
	return &Workers{nodelets: nodelets, workers: workers, strat: strat, mk: mk}
}

// Drive advances the spawn tree; see Driver for the protocol.
func (ws *Workers) Drive(t *machine.CThread) (parked bool) {
	if ws.workers <= 0 {
		return false
	}
	if ws.tree == nil {
		ws.tree = ws.plan(t.System().Nodelets())
	}
	return ws.tree.Drive(t)
}

// plan checks the nodelet count against the machine's and builds the
// strategy's spawner, with every id list it needs allocated once at its
// exact size.
func (ws *Workers) plan(machineNodelets int) Driver {
	if ws.nodelets <= 0 || ws.nodelets > machineNodelets {
		panic(fmt.Sprintf("cilk: %d nodelets requested of %d", ws.nodelets, machineNodelets))
	}
	switch ws.strat {
	case SerialSpawn, RecursiveSpawn:
		ids := make([]int, ws.workers)
		for w := range ids {
			ids[w] = w
		}
		return newLocal(ids, ws.strat == RecursiveSpawn, ws.mk)
	case SerialRemoteSpawn, RecursiveRemoteSpawn:
		n := min(ws.nodelets, ws.workers)
		groups, nls, ids := make([][]int, n), make([]int, n), make([]int, 0, ws.workers)
		for nl := range nls {
			first := len(ids)
			for w := nl; w < ws.workers; w += ws.nodelets {
				ids = append(ids, w)
			}
			groups[nl], nls[nl] = ids[first:], nl
		}
		return newRemote(groups, nls, ws.strat == RecursiveRemoteSpawn, ws.mk)
	}
	panic("cilk: unknown strategy")
}

// ParFor is a grain-size parallel loop, the cilk_spawn-built analogue of
// cilk_for with a grain-size clause — the knob the paper sweeps for SpMV
// (16 iterations per spawn best on Emu, 16384 on the Xeon) — and a Driver.
// It is a coord whose spawner is the loop: it hands the lower half of its
// range to a spawned ParFor and splits the upper half again in place, runs
// the final range of at most grain iterations inline through the leaf body,
// and syncs. Through Step it is also the body of each spawned half.
type ParFor struct {
	coord
	lo, hi, grain int
	leaf          func(lo, hi int) machine.CBody
	body          machine.CBody // the inline leaf, once the range is split down
}

// NewParallelFor prepares a parallel loop over [0, n) with at most grain
// iterations per leaf (grain <= 0 means 1); leaf(lo, hi) builds the body that runs
// iterations [lo, hi) on whichever thread reaches them.
func NewParallelFor(n, grain int, leaf func(lo, hi int) machine.CBody) *ParFor {
	f := &ParFor{hi: n, grain: max(grain, 1), leaf: leaf}
	if n > 0 { // an empty loop returns at once, without a sync
		f.s = f
	}
	return f
}

// spawn splits the range down to the grain, then runs the leaf inline.
func (f *ParFor) spawn(t *machine.CThread) bool {
	for f.body == nil {
		n := f.hi - f.lo
		if n <= f.grain {
			f.body = f.leaf(f.lo, f.hi)
			break
		}
		lower := &ParFor{lo: f.lo, hi: f.lo + n/2, grain: f.grain, leaf: f.leaf}
		lower.s = lower
		f.lo += n / 2
		if t.CSpawn(lower) {
			return true
		}
	}
	return !f.body.Step(t)
}

// Grouped creates one worker per id in groups, where groups[nl] lists the
// worker ids that must start on nodelet nl; it is a Driver. Placement is
// the recursive remote tree over the populated nodelets — the paper's
// recursive_remote_spawn shape, which on round-robin groups issues exactly
// Workers' RecursiveRemoteSpawn spawns — so launching W workers costs
// O(log W) critical-path spawns instead of W. Kernels whose workers have
// data-dependent home nodelets (pointer chasing chains) use this instead of
// Workers' round-robin placement.
type Grouped struct {
	tree *remote
}

// NewGrouped prepares a Grouped spawn tree over groups[nl] = worker ids homed
// on nodelet nl; mk(id) builds worker id's body.
func NewGrouped(groups [][]int, mk func(int) machine.CBody) *Grouped {
	nls := make([]int, 0, len(groups))
	for nl, ids := range groups {
		if len(ids) > 0 {
			nls = append(nls, nl)
		}
	}
	return &Grouped{tree: newRemote(groups, nls, true, mk)}
}

// Drive advances the grouped spawn tree; see Driver for the protocol.
func (g *Grouped) Drive(t *machine.CThread) (parked bool) {
	return g.tree.Drive(t)
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

// Package cilk implements the thread-creation strategies the paper builds
// by hand because the Emu 17.11 toolchain lacked cilk_for (section III-E):
//
//   - serial_spawn          — a for loop of local spawns on one nodelet
//   - recursive_spawn       — a local recursive spawn tree
//   - serial_remote_spawn   — one remote spawn per nodelet, then local
//     serial spawning on each
//   - recursive_remote_spawn — a recursive spawn tree across nodelets,
//     then local recursive trees
//
// plus a grain-size ParallelFor built from recursive spawning, mirroring
// the cilk_spawn SpMV kernels with their "elements per spawn" parameter.
package cilk

import (
	"fmt"

	"emuchick/internal/machine"
)

// Strategy selects one of the paper's four spawn-tree shapes.
type Strategy int

const (
	SerialSpawn Strategy = iota
	RecursiveSpawn
	SerialRemoteSpawn
	RecursiveRemoteSpawn
)

// Strategies lists all four in presentation order (the order of Fig. 5's
// legend).
var Strategies = []Strategy{SerialSpawn, RecursiveSpawn, SerialRemoteSpawn, RecursiveRemoteSpawn}

// String returns the paper's snake_case name for the strategy.
func (s Strategy) String() string {
	switch s {
	case SerialSpawn:
		return "serial_spawn"
	case RecursiveSpawn:
		return "recursive_spawn"
	case SerialRemoteSpawn:
		return "serial_remote_spawn"
	case RecursiveRemoteSpawn:
		return "recursive_remote_spawn"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Remote reports whether the strategy first places a spawner on each
// nodelet (the property Fig. 5 shows is essential for multi-nodelet
// bandwidth).
func (s Strategy) Remote() bool {
	return s == SerialRemoteSpawn || s == RecursiveRemoteSpawn
}

// ParseStrategy maps a snake_case name back to its Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range Strategies {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("cilk: unknown spawn strategy %q", name)
}

// SpawnWorkers creates workers threads spread across nodelets using the
// given strategy and blocks until all of them finish. Worker w runs
// body(thread, w). Workers are distributed round-robin over nodelets:
// worker w belongs to nodelet w mod nodelets, and with a non-remote
// strategy every worker is created on the caller's nodelet and must migrate
// to its data on first touch.
func SpawnWorkers(t *machine.Thread, nodelets, workers int, strat Strategy, body func(*machine.Thread, int)) {
	if workers <= 0 {
		return
	}
	if nodelets <= 0 || nodelets > t.System().Nodelets() {
		panic(fmt.Sprintf("cilk: %d nodelets requested of %d", nodelets, t.System().Nodelets()))
	}
	switch strat {
	case SerialSpawn:
		for w := 0; w < workers; w++ {
			w := w
			t.Spawn(func(c *machine.Thread) { body(c, w) })
		}
	case RecursiveSpawn:
		spawnRangeLocal(t, 0, workers, body)
	case SerialRemoteSpawn:
		for nl := 0; nl < nodelets && nl < workers; nl++ {
			nl := nl
			t.SpawnAt(nl, func(c *machine.Thread) {
				for w := nl; w < workers; w += nodelets {
					w := w
					c.Spawn(func(g *machine.Thread) { body(g, w) })
				}
				c.Sync()
			})
		}
	case RecursiveRemoteSpawn:
		spawnNodeletsRecursive(t, nodelets, 0, min(nodelets, workers), workers, body)
	default:
		panic("cilk: unknown strategy")
	}
	t.Sync()
}

// spawnRangeLocal spawns workers [lo, hi) with a local binary spawn tree.
func spawnRangeLocal(t *machine.Thread, lo, hi int, body func(*machine.Thread, int)) {
	switch hi - lo {
	case 0:
		return
	case 1:
		t.Spawn(func(c *machine.Thread) { body(c, lo) })
		return
	}
	mid := lo + (hi-lo)/2
	t.Spawn(func(c *machine.Thread) {
		spawnRangeLocal(c, lo, mid, body)
		c.Sync()
	})
	spawnRangeLocal(t, mid, hi, body)
}

// spawnNodeletsRecursive places one coordinator per nodelet in [nlo, nhi)
// with a recursive remote-spawn tree; each coordinator then builds a local
// recursive tree of its workers.
func spawnNodeletsRecursive(t *machine.Thread, nodelets, nlo, nhi, workers int, body func(*machine.Thread, int)) {
	switch nhi - nlo {
	case 0:
		return
	case 1:
		nl := nlo
		t.SpawnAt(nl, func(c *machine.Thread) {
			var ids []int
			for w := nl; w < workers; w += nodelets {
				ids = append(ids, w)
			}
			spawnIDsLocal(c, ids, body)
			c.Sync()
		})
		return
	}
	mid := nlo + (nhi-nlo)/2
	t.SpawnAt(mid, func(c *machine.Thread) {
		spawnNodeletsRecursive(c, nodelets, mid, nhi, workers, body)
		c.Sync()
	})
	spawnNodeletsRecursive(t, nodelets, nlo, mid, workers, body)
}

// spawnIDsLocal spawns one worker per id with a local binary tree.
func spawnIDsLocal(t *machine.Thread, ids []int, body func(*machine.Thread, int)) {
	switch len(ids) {
	case 0:
		return
	case 1:
		id := ids[0]
		t.Spawn(func(c *machine.Thread) { body(c, id) })
		return
	}
	mid := len(ids) / 2
	left := ids[:mid]
	t.Spawn(func(c *machine.Thread) {
		spawnIDsLocal(c, left, body)
		c.Sync()
	})
	spawnIDsLocal(t, ids[mid:], body)
}

// ParallelFor executes body(lo, hi) over subranges of [0, n) of at most
// grain iterations each, using a recursive local spawn tree, and blocks
// until the whole range is done. It is the cilk_spawn-built analogue of
// cilk_for with a grain-size clause, the knob the paper sweeps for SpMV
// (16 iterations per spawn best on Emu, 16384 on the Xeon).
func ParallelFor(t *machine.Thread, n, grain int, body func(*machine.Thread, int, int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	parForRange(t, 0, n, grain, body)
	t.Sync()
}

func parForRange(t *machine.Thread, lo, hi, grain int, body func(*machine.Thread, int, int)) {
	if hi-lo <= grain {
		body(t, lo, hi)
		return
	}
	mid := lo + (hi-lo)/2
	t.Spawn(func(c *machine.Thread) {
		parForRange(c, lo, mid, grain, body)
		c.Sync()
	})
	parForRange(t, mid, hi, grain, body)
}

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
// plus a grain-size parallel loop (NewParallelFor) built from recursive
// spawning, mirroring the cilk_spawn SpMV kernels with their "elements per
// spawn" parameter. Every tree is a resumable state machine over
// machine.CThread (see cont.go).
package cilk

import "fmt"

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

// Package machine models the Emu Chick: nodes of eight nodelets, each
// nodelet combining a narrow NCDRAM channel with one or more cache-less,
// highly multithreaded Gossamer cores, plus the migration engine that moves
// thread contexts to data. It exposes a threadlet API (CThread: load, store,
// atomics, compute, spawn, sync) against which the paper's Cilk kernels are
// written.
//
// The model is a calibrated queueing simulation, not an RTL simulation: each
// hardware resource (core issue port, memory channel, migration engine,
// inter-node link) is a deterministic single-server queue, and the constants
// are set from the rates the paper publishes (150 MHz Gossamer clock,
// 8-bit DDR4-1600 channels, 9 M vs 16 M migrations/s, 1-2 us migration
// latency, <200 B thread context). See DESIGN.md section 4 for the full
// calibration derivation.
package machine

import (
	"fmt"

	"emuchick/internal/sim"
)

// Config describes one Emu system configuration. The three presets —
// HardwareChick, SimMatched, and FullSpeed — correspond to the three
// platforms in the paper: the prototype hardware, the vendor simulator
// configured to match the prototype, and the vendor simulator configured at
// design speed.
type Config struct {
	Name string

	// Topology.
	Nodes           int // node cards (the Chick chassis has 8)
	NodeletsPerNode int // 8 on the Chick
	GCsPerNodelet   int // 1 on the prototype, 4 at design speed
	ThreadsPerGC    int // 64 on the prototype, 256 at design speed

	// Gossamer cores.
	CoreHz         int64 // 150 MHz prototype, 300 MHz design
	MemIssueCycles int64 // core cycles to issue one memory operation

	// NCDRAM channel (one per nodelet).
	WordAccessTime sim.Time // channel occupancy per 8-byte access
	MemLatency     sim.Time // additional load-to-use latency (not occupying the channel)

	// Migration engine (one shared engine per node card; the ping-pong
	// benchmark saturates it at 9 M migrations/s on hardware and 16 M/s
	// in the vendor simulator).
	MigrationsPerSec  float64  // sustained migration rate per node
	MigrationLatency  sim.Time // one-way context flight time, intra-node
	InterNodeLatency  sim.Time // extra flight time when crossing node cards
	ContextBytes      int64    // thread context size (paper: < 200 B)
	FabricBytesPerSec float64  // RapidIO-like per-node link bandwidth

	// Thread creation.
	LocalSpawnCycles   int64    // core cycles charged to the parent per local spawn
	RemoteSpawnLatency sim.Time // flight time of a remote spawn packet
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("machine: config %q: Nodes must be positive", c.Name)
	case c.NodeletsPerNode <= 0:
		return fmt.Errorf("machine: config %q: NodeletsPerNode must be positive", c.Name)
	case c.GCsPerNodelet <= 0:
		return fmt.Errorf("machine: config %q: GCsPerNodelet must be positive", c.Name)
	case c.ThreadsPerGC <= 0:
		return fmt.Errorf("machine: config %q: ThreadsPerGC must be positive", c.Name)
	case c.CoreHz <= 0:
		return fmt.Errorf("machine: config %q: CoreHz must be positive", c.Name)
	case c.WordAccessTime <= 0:
		return fmt.Errorf("machine: config %q: WordAccessTime must be positive", c.Name)
	case c.MemLatency < 0:
		return fmt.Errorf("machine: config %q: MemLatency must be non-negative", c.Name)
	case c.MigrationsPerSec <= 0:
		return fmt.Errorf("machine: config %q: MigrationsPerSec must be positive", c.Name)
	case c.ContextBytes <= 0:
		return fmt.Errorf("machine: config %q: ContextBytes must be positive", c.Name)
	case c.FabricBytesPerSec <= 0:
		return fmt.Errorf("machine: config %q: FabricBytesPerSec must be positive", c.Name)
	case c.MemIssueCycles <= 0:
		return fmt.Errorf("machine: config %q: MemIssueCycles must be positive", c.Name)
	}
	return nil
}

// TotalNodelets reports the nodelet count across all nodes.
func (c Config) TotalNodelets() int { return c.Nodes * c.NodeletsPerNode }

// ContextsPerNodelet reports the hardware thread-context capacity of one
// nodelet (contexts resident across its Gossamer cores).
func (c Config) ContextsPerNodelet() int { return c.GCsPerNodelet * c.ThreadsPerGC }

// NodeOf reports which node card the given nodelet belongs to.
func (c Config) NodeOf(nodelet int) int { return nodelet / c.NodeletsPerNode }

// ChannelBytesPerSec reports the peak word-traffic rate of one NCDRAM
// channel under this configuration.
func (c Config) ChannelBytesPerSec() float64 {
	return 8 / c.WordAccessTime.Seconds()
}

// PeakMemoryBytesPerSec reports the aggregate peak word-traffic rate of the
// whole machine — the denominator for "% of peak" style metrics.
func (c Config) PeakMemoryBytesPerSec() float64 {
	return c.ChannelBytesPerSec() * float64(c.TotalNodelets())
}

// HardwareChick returns the configuration of the prototype hardware as the
// paper describes it in section III-A: one node usable (firmware bugs limit
// multi-node operation), 8 nodelets, a single 150 MHz Gossamer core per
// nodelet with 64 threadlet contexts, DDR4-1600 behind an 8-bit channel,
// and a node migration engine that sustains 9 M migrations/s at 1-2 us per
// migration (both measured by the paper's ping-pong benchmark).
//
// The 50 ns per-word channel occupancy and the 1.5 us load-to-use latency
// are calibrated so that (a) one node peaks at ~1.2 GB/s on STREAM and
// (b) single-nodelet STREAM scales through ~32 threads before plateauing,
// both as measured in the paper (Figs. 4-5).
func HardwareChick() Config {
	return Config{
		Name:               "emu-chick-hw",
		Nodes:              1,
		NodeletsPerNode:    8,
		GCsPerNodelet:      1,
		ThreadsPerGC:       64,
		CoreHz:             150e6,
		MemIssueCycles:     1,
		WordAccessTime:     50 * sim.Nanosecond,
		MemLatency:         1500 * sim.Nanosecond,
		MigrationsPerSec:   9e6,
		MigrationLatency:   1500 * sim.Nanosecond,
		InterNodeLatency:   800 * sim.Nanosecond,
		ContextBytes:       200,
		FabricBytesPerSec:  2.5e9,
		LocalSpawnCycles:   40,
		RemoteSpawnLatency: 2 * sim.Microsecond,
	}
}

// HardwareChickNodes returns the prototype configuration extended to the
// given number of node cards — the "initial test of the full 8-node
// configuration" that yielded 6.5 GB/s before becoming unstable.
func HardwareChickNodes(nodes int) Config {
	c := HardwareChick()
	c.Name = fmt.Sprintf("emu-chick-hw-%dnode", nodes)
	c.Nodes = nodes
	return c
}

// SimMatched returns the vendor simulator configured to match the prototype
// (the validation configuration of section IV-D). It is identical to
// HardwareChick except for the one discrepancy the paper isolates with the
// ping-pong benchmark: the simulated migration engine sustains 16 M
// migrations/s across a nodelet pair where hardware sustains 9 M.
func SimMatched() Config {
	c := HardwareChick()
	c.Name = "emu-sim-matched"
	c.MigrationsPerSec = 16e6
	c.MigrationLatency = 850 * sim.Nanosecond
	return c
}

// FullSpeed returns the design-speed configuration the paper projects with
// the simulator (Fig. 11): 300 MHz Gossamer cores, four cores per nodelet
// with 256 contexts each, DDR4-2133 channels, and the fast migration
// engine, across the given number of node cards (8 gives the 64-nodelet
// system of Fig. 11).
func FullSpeed(nodes int) Config {
	return Config{
		Name:               fmt.Sprintf("emu-fullspeed-%dnode", nodes),
		Nodes:              nodes,
		NodeletsPerNode:    8,
		GCsPerNodelet:      4,
		ThreadsPerGC:       256,
		CoreHz:             300e6,
		MemIssueCycles:     1,
		WordAccessTime:     sim.Time(37500), // 37.5 ns: DDR4-2133 scaling of the 1600 MT/s channel
		MemLatency:         900 * sim.Nanosecond,
		MigrationsPerSec:   16e6,
		MigrationLatency:   850 * sim.Nanosecond,
		InterNodeLatency:   500 * sim.Nanosecond,
		ContextBytes:       200,
		FabricBytesPerSec:  5e9,
		LocalSpawnCycles:   40,
		RemoteSpawnLatency: 1 * sim.Microsecond,
	}
}

package machine

// Counters mirror the event counts the Emu vendor simulator reports ("the
// number of thread spawns, migrations, and memory operations per nodelet",
// section III-B). They are exact — every simulated operation increments
// exactly one of them — which the counter tests rely on.
//
// Storage is struct-of-arrays over a single arena: one contiguous []uint64
// holds every per-nodelet series back to back, so a whole-machine reduction
// (TotalWords, Snapshot, the gauge scorecards) walks unit-stride memory
// instead of striding over 96-byte per-nodelet structs, and the increment
// paths index a flat series with no pointer chasing. NodeletCounters remains
// the assembled per-nodelet view the public API returns.
type Counters struct {
	nodelets int
	arena    []uint64 // the single backing allocation, series-major

	// Per-nodelet series, each a window into arena.
	localSpawns, remoteSpawns   []uint64
	migrationsIn, migrationsOut []uint64
	localReads, localWrites     []uint64
	remoteStores, atomics       []uint64
	computeCycles               []uint64
	// Fault-injection series (zero on healthy runs); see internal/fault.
	stalledMigrations, migrationRetries, backoffCycles []uint64

	ThreadsSpawned   uint64
	ThreadsCompleted uint64
	LiveThreads      int
	MaxLiveThreads   int
}

// numSeries is how many per-nodelet series the arena holds.
const numSeries = 12

// NodeletCounters is the assembled per-nodelet view of the counter set.
type NodeletCounters struct {
	LocalSpawns   uint64 // threads created on this nodelet by a local parent
	RemoteSpawns  uint64 // threads created on this nodelet by a remote parent
	MigrationsIn  uint64
	MigrationsOut uint64
	LocalReads    uint64 // 8-byte word reads served by this nodelet's channel
	LocalWrites   uint64 // 8-byte word writes from resident threads
	RemoteStores  uint64 // posted stores arriving from other nodelets
	Atomics       uint64 // memory-side atomic operations served
	ComputeCycles uint64 // non-memory core cycles charged on this nodelet

	// Fault-injection counters (zero on healthy runs): migrations that hit
	// at least one stall/outage window, individual backoff retries, and
	// the total core cycles spent backing off. See internal/fault.
	StalledMigrations uint64
	MigrationRetries  uint64
	BackoffCycles     uint64
}

func newCounters(nodelets int) *Counters {
	c := &Counters{nodelets: nodelets, arena: make([]uint64, numSeries*nodelets)}
	series := func(i int) []uint64 { return c.arena[i*nodelets : (i+1)*nodelets : (i+1)*nodelets] }
	c.localSpawns = series(0)
	c.remoteSpawns = series(1)
	c.migrationsIn = series(2)
	c.migrationsOut = series(3)
	c.localReads = series(4)
	c.localWrites = series(5)
	c.remoteStores = series(6)
	c.atomics = series(7)
	c.computeCycles = series(8)
	c.stalledMigrations = series(9)
	c.migrationRetries = series(10)
	c.backoffCycles = series(11)
	return c
}

// Nodelet assembles a copy of the counters for one nodelet from the series.
func (c *Counters) Nodelet(nl int) NodeletCounters {
	return NodeletCounters{
		LocalSpawns:       c.localSpawns[nl],
		RemoteSpawns:      c.remoteSpawns[nl],
		MigrationsIn:      c.migrationsIn[nl],
		MigrationsOut:     c.migrationsOut[nl],
		LocalReads:        c.localReads[nl],
		LocalWrites:       c.localWrites[nl],
		RemoteStores:      c.remoteStores[nl],
		Atomics:           c.atomics[nl],
		ComputeCycles:     c.computeCycles[nl],
		StalledMigrations: c.stalledMigrations[nl],
		MigrationRetries:  c.migrationRetries[nl],
		BackoffCycles:     c.backoffCycles[nl],
	}
}

// Snapshot returns a copy of every nodelet's counters, for whole-machine
// comparisons (the trace-equivalence tests diff traced vs untraced runs).
func (c *Counters) Snapshot() []NodeletCounters {
	out := make([]NodeletCounters, c.nodelets)
	for i := range out {
		out[i] = c.Nodelet(i)
	}
	return out
}

// Nodelets reports how many nodelets the counter set spans.
func (c *Counters) Nodelets() int { return c.nodelets }

// TotalMigrations sums migrations-out across nodelets (each migration is
// counted once out and once in).
func (c *Counters) TotalMigrations() uint64 { return sum(c.migrationsOut) }

// TotalSpawns sums thread creations across nodelets.
func (c *Counters) TotalSpawns() uint64 {
	return sum(c.localSpawns) + sum(c.remoteSpawns)
}

// TotalWords sums word reads, word writes, remote stores, and atomics —
// the total channel word traffic of the run.
func (c *Counters) TotalWords() uint64 {
	return sum(c.localReads) + sum(c.localWrites) + sum(c.remoteStores) + sum(c.atomics)
}

// TotalBytes is TotalWords scaled to bytes.
func (c *Counters) TotalBytes() uint64 { return 8 * c.TotalWords() }

func sum(series []uint64) uint64 {
	var total uint64
	for _, v := range series {
		total += v
	}
	return total
}

func (c *Counters) threadStarted() {
	c.ThreadsSpawned++
	c.LiveThreads++
	if c.LiveThreads > c.MaxLiveThreads {
		c.MaxLiveThreads = c.LiveThreads
	}
}

func (c *Counters) threadFinished() {
	c.ThreadsCompleted++
	c.LiveThreads--
}

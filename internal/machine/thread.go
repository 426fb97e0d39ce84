package machine

import (
	"fmt"
	"math"

	"emuchick/internal/fault"
	"emuchick/internal/memsys"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// Thread is one Gossamer threadlet: a lightweight context (the real thing is
// 16 registers, a PC, a stack counter and status — under 200 bytes) resident
// on some nodelet. Kernels are written against this API exactly the way the
// paper's Cilk benchmarks are written against the Emu toolchain:
//
//   - Load of a local word costs an issue slot, channel occupancy, and
//     memory latency.
//   - Load of a REMOTE word first migrates the thread to the word's nodelet
//     ("any remote read triggers a migration").
//   - Stores to remote words are posted through the network without
//     migrating, and atomics are executed by memory-side processors, both
//     matching section II.
//   - Spawn creates a child threadlet locally; SpawnAt creates it on a
//     chosen nodelet (a "remote spawn"); Sync joins all children.
//
// All methods must be called from the thread's own simulated context.
//
// Thread implements sim.Runner, and its contexts are pooled by the System
// (see acquireThread): the spawn hot path allocates neither a closure nor a
// Thread in steady state. The child join is embedded rather than allocated —
// children all call Done before their parent's RunProc returns (the implicit
// sync), so the embedded join can never outlive its Thread's lifetime.
type Thread struct {
	sys        *System
	p          *sim.Proc
	nodelet    int
	core       int
	children   *sim.Join // nil until the first spawn, then &childJoin
	childJoin  sim.Join
	parentJoin *sim.Join
	body       func(*Thread)
}

// RunProc is the sim.Runner body of a machine thread: acquire a context
// slot, run the body with the implicit cilk sync at function end, release
// the slot, notify the parent, and recycle the Thread.
func (t *Thread) RunProc(p *sim.Proc) {
	s := t.sys
	t.p = p
	home := s.nodelets[t.nodelet]
	home.slots.Acquire(p)
	t.core = home.nextCore
	home.nextCore = (home.nextCore + 1) % len(home.cores)
	s.Counters.threadStarted()
	s.emit(trace.KindThreadStart, t.nodelet, -1, 0, p.Now(), p.Now())
	t.body(t)
	// Implicit cilk sync at function end, matching Cilk semantics.
	t.Sync()
	s.nodelets[t.nodelet].slots.Release()
	s.Counters.threadFinished()
	s.emit(trace.KindThreadEnd, t.nodelet, -1, 0, p.Now(), p.Now())
	if t.parentJoin != nil {
		t.parentJoin.Done()
	}
	s.releaseThread(t)
}

// System returns the machine this thread runs on.
func (t *Thread) System() *System { return t.sys }

// Nodelet reports the nodelet the thread currently resides on.
func (t *Thread) Nodelet() int { return t.nodelet }

// Now reports the current simulated time.
func (t *Thread) Now() sim.Time { return t.p.Now() }

// Compute charges the given number of core cycles of non-memory work.
func (t *Thread) Compute(cycles int64) {
	if cycles <= 0 {
		return
	}
	s := t.sys
	nl := s.nodelets[t.nodelet]
	_, done := nl.cores[t.core].Acquire(t.p.Now(), s.clock.Cycles(cycles))
	s.Counters.computeCycles[t.nodelet] += uint64(cycles)
	t.p.WaitUntil(done)
}

// localWordAccess models one blocking 8-byte access to the resident
// nodelet's channel: issue at the core, occupy the channel, then the
// load-to-use latency.
func (t *Thread) localWordAccess() {
	s := t.sys
	nl := s.nodelets[t.nodelet]
	_, issued := nl.cores[t.core].Acquire(t.p.Now(), s.clock.Cycles(s.Cfg.MemIssueCycles))
	_, served := nl.channel.Acquire(issued, s.Cfg.WordAccessTime)
	t.p.WaitUntil(served + s.Cfg.MemLatency)
}

// Load reads the word at a, migrating to its home nodelet first if the
// address is remote. It returns the stored value.
func (t *Thread) Load(a memsys.Addr) uint64 {
	if home := a.Nodelet(); home != t.nodelet {
		t.migrate(home, a) // the read is the migration's trigger address
	}
	t.sys.Counters.localReads[t.nodelet]++
	issued := t.p.Now()
	t.localWordAccess()
	t.sys.emit(trace.KindLoad, t.nodelet, -1, a, issued, t.p.Now())
	return t.sys.Mem.Read(a)
}

// Store writes v to the word at a. A local store blocks like a load; a
// remote store is posted through the network without migrating the thread
// (the thread is charged only the issue cycle, and stalls only when the
// destination's finite remote queue is saturated).
//
// Memory-ordering note: the functional value becomes visible immediately
// even though the modelled delivery completes later, so programs that race
// a posted store against a reader observe the store "early". The paper's
// kernels (and this repository's) partition writers, or join with Sync
// before reading, exactly as real Emu programs must.
func (t *Thread) Store(a memsys.Addr, v uint64) {
	s := t.sys
	home := a.Nodelet()
	if home == t.nodelet {
		s.Counters.localWrites[t.nodelet]++
		issued := t.p.Now()
		t.localWordAccess()
		s.Mem.Write(a, v)
		s.emit(trace.KindStore, t.nodelet, -1, a, issued, t.p.Now())
		return
	}
	// Posted remote store: issue locally, deliver after the network flight,
	// occupying the destination channel on arrival.
	nl := s.nodelets[t.nodelet]
	_, issued := nl.cores[t.core].Acquire(t.p.Now(), s.clock.Cycles(s.Cfg.MemIssueCycles))
	arrive := issued + t.networkLatency(home)
	_, served := s.nodelets[home].channel.Acquire(arrive, s.Cfg.WordAccessTime)
	s.Counters.remoteStores[home]++
	s.Mem.Write(a, v)
	s.emit(trace.KindRemoteStore, t.nodelet, home, a, issued, served)
	t.p.WaitUntil(t.postedAccept(issued, served))
}

// FetchAdd atomically adds delta to the word at a and returns the previous
// value. The operation is executed by the memory-side processor of the
// word's home nodelet; a remote FetchAdd blocks for the network round trip
// but does NOT migrate the thread.
func (t *Thread) FetchAdd(a memsys.Addr, delta uint64) uint64 {
	s := t.sys
	home := a.Nodelet()
	nl := s.nodelets[t.nodelet]
	_, issued := nl.cores[t.core].Acquire(t.p.Now(), s.clock.Cycles(s.Cfg.MemIssueCycles))
	arrive := issued
	if home != t.nodelet {
		arrive += t.networkLatency(home)
	}
	// Read-modify-write occupies the home channel for two word times.
	_, served := s.nodelets[home].channel.Acquire(arrive, 2*s.Cfg.WordAccessTime)
	s.Counters.atomics[home]++
	old := s.Mem.Read(a)
	s.Mem.Write(a, old+delta)
	finish := served
	if home != t.nodelet {
		finish += t.networkLatency(home) // response flight
	} else {
		finish += s.Cfg.MemLatency
	}
	s.emit(trace.KindAtomic, t.nodelet, home, a, issued, finish)
	t.p.WaitUntil(finish)
	return old
}

// RemoteAdd posts an atomic add without waiting for completion — the
// "remote update" idiom Emu programs use to accumulate into far memory.
func (t *Thread) RemoteAdd(a memsys.Addr, delta uint64) {
	s := t.sys
	home := a.Nodelet()
	nl := s.nodelets[t.nodelet]
	_, issued := nl.cores[t.core].Acquire(t.p.Now(), s.clock.Cycles(s.Cfg.MemIssueCycles))
	arrive := issued
	if home != t.nodelet {
		arrive += t.networkLatency(home)
	}
	_, served := s.nodelets[home].channel.Acquire(arrive, 2*s.Cfg.WordAccessTime)
	s.Counters.atomics[home]++
	s.emit(trace.KindAtomic, t.nodelet, home, a, issued, served)
	s.Mem.Write(a, s.Mem.Read(a)+delta)
	t.p.WaitUntil(t.postedAccept(issued, served))
}

// remoteQueueEntries bounds the per-nodelet queue of posted remote
// operations. A sender whose packet would land more than this many
// word-service times deep in the destination's backlog stalls until the
// queue drains — finite buffering, without which posted operations would
// be infinitely absorbing and destination contention invisible.
const remoteQueueEntries = 64

// postedAccept converts a posted operation's issue and service times into
// the moment the sender may proceed.
func (s *System) postedAccept(issued, served sim.Time) sim.Time {
	bound := served - sim.Time(remoteQueueEntries)*s.Cfg.WordAccessTime
	if bound > issued {
		return bound
	}
	return issued
}

func (t *Thread) postedAccept(issued, served sim.Time) sim.Time {
	return t.sys.postedAccept(issued, served)
}

// RemoteAddFloat posts an atomic float64 accumulation, the operation the
// memory-side processors provide for reductions into far memory (tensor
// contractions and SpMV outputs use it). Timing is identical to RemoteAdd.
func (t *Thread) RemoteAddFloat(a memsys.Addr, delta float64) {
	s := t.sys
	home := a.Nodelet()
	nl := s.nodelets[t.nodelet]
	_, issued := nl.cores[t.core].Acquire(t.p.Now(), s.clock.Cycles(s.Cfg.MemIssueCycles))
	arrive := issued
	if home != t.nodelet {
		arrive += t.networkLatency(home)
	}
	_, served := s.nodelets[home].channel.Acquire(arrive, 2*s.Cfg.WordAccessTime)
	s.Counters.atomics[home]++
	s.emit(trace.KindAtomic, t.nodelet, home, a, issued, served)
	cur := math.Float64frombits(s.Mem.Read(a))
	s.Mem.Write(a, math.Float64bits(cur+delta))
	t.p.WaitUntil(t.postedAccept(issued, served))
}

// flightLatency is the one-way network flight time from nodelet src to the
// target nodelet's memory-side processor: the base migration latency, plus
// the inter-node hop when crossing node cards, plus the top-of-rack hop when
// crossing chassis (zero on single-tier machines). Thread and CThread share
// it so the two proc engines are arithmetic-identical by construction.
func (s *System) flightLatency(src, target int) sim.Time {
	lat := s.Cfg.MigrationLatency
	if s.Cfg.NodeOf(target) != s.Cfg.NodeOf(src) {
		lat += s.Cfg.InterNodeLatency
	}
	if s.Cfg.ChassisOf(target) != s.Cfg.ChassisOf(src) {
		lat += s.Cfg.InterChassisLatency
	}
	return lat
}

// spawnArrival is when a spawn packet issued at nodelet src at time at
// becomes runnable on nodelet nl.
func (s *System) spawnArrival(src, nl int, at sim.Time) sim.Time {
	if nl != src {
		at += s.Cfg.RemoteSpawnLatency
		if s.Cfg.NodeOf(nl) != s.Cfg.NodeOf(src) {
			at += s.Cfg.InterNodeLatency
		}
		if s.Cfg.ChassisOf(nl) != s.Cfg.ChassisOf(src) {
			at += s.Cfg.InterChassisLatency
		}
	}
	return at
}

// networkLatency is the one-way flight time from the thread's nodelet to
// the target nodelet's memory-side processor.
func (t *Thread) networkLatency(target int) sim.Time {
	return t.sys.flightLatency(t.nodelet, target)
}

// MigrateTo moves the thread's context to the target nodelet: it releases
// its context slot, queues at the local migration-engine egress port, flies
// across the (possibly inter-node) fabric, and claims a context slot at the
// destination. Migrating to the current nodelet is a no-op.
func (t *Thread) MigrateTo(target int) {
	t.migrate(target, 0)
}

// migrate is MigrateTo plus the trigger address: the remote word whose read
// forced the move (zero for an explicit MigrateTo), recorded on the
// migration's trace event.
func (t *Thread) migrate(target int, trigger memsys.Addr) {
	s := t.sys
	if target == t.nodelet {
		return
	}
	if target < 0 || target >= len(s.nodelets) {
		panic(fmt.Sprintf("machine: migrate to nodelet %d of %d", target, len(s.nodelets)))
	}
	s.Counters.migrationsOut[t.nodelet]++
	s.Counters.migrationsIn[target]++
	node := s.Cfg.NodeOf(t.nodelet)
	crossing := s.Cfg.NodeOf(target) != node
	depart := t.p.Now()
	if s.faults != nil {
		depart = t.faultBackoff(node, target, crossing, depart)
	}
	s.nodelets[t.nodelet].slots.Release()
	engine := s.migEngines[node]
	_, sent := engine.Acquire(depart, s.migSvc)
	flight := s.Cfg.MigrationLatency
	if crossing {
		link := s.links[node]
		xfer := s.ctxXfer
		if s.faults != nil {
			xfer = fault.Scale(xfer, s.faults.LinkScale(node, sent))
		}
		_, sent = link.Acquire(sent, xfer)
		flight += s.Cfg.InterNodeLatency
		if s.Cfg.ChassisOf(target) != s.Cfg.ChassisOf(t.nodelet) {
			flight += s.Cfg.InterChassisLatency
		}
	}
	s.emit(trace.KindMigrate, t.nodelet, target, trigger, depart, sent+flight)
	t.p.WaitUntil(sent + flight)
	t.nodelet = target
	to := s.nodelets[target]
	to.slots.Acquire(t.p)
	t.core = to.nextCore
	to.nextCore = (to.nextCore + 1) % len(to.cores)
}

// faultBackoff holds the thread at its source nodelet while a fault blocks
// the migration — a migration-engine stall window, or a fabric-link outage
// when the move crosses node cards. The thread keeps its context slot and
// polls with exponential backoff (the real backpressure a stalled engine
// exerts: the slot stays occupied, starving inbound work), which the
// StalledMigrations / MigrationRetries / BackoffCycles counters measure. It
// returns the time the migration finally departs. Windows are validated
// time-bounded, so the loop always terminates.
func (t *Thread) faultBackoff(node, target int, crossing bool, depart sim.Time) sim.Time {
	s := t.sys
	c, src := s.Counters, t.nodelet
	for attempt := 0; ; attempt++ {
		if _, blocked := s.faults.BlockedUntil(node, crossing, depart); !blocked {
			return depart
		}
		if attempt == 0 {
			c.stalledMigrations[src]++
		}
		c.migrationRetries[src]++
		cyc := s.faults.BackoffCycles(attempt)
		c.backoffCycles[src] += uint64(cyc)
		resume := depart + s.clock.Cycles(cyc)
		s.emit(trace.KindFaultStall, t.nodelet, target, 0, depart, resume)
		t.p.WaitUntil(resume)
		depart = resume
	}
}

// Spawn creates a child threadlet on the current nodelet (cilk_spawn). The
// parent is charged the spawn cost; the child becomes runnable immediately
// once it obtains a context slot. Children are joined by Sync.
func (t *Thread) Spawn(fn func(*Thread)) {
	t.Compute(t.sys.Cfg.LocalSpawnCycles)
	t.spawnOn(t.nodelet, t.p.Now(), fn)
}

// SpawnAt creates a child threadlet on the given nodelet — Emu's "remote
// spawn", which the paper shows is essential for saturating multi-nodelet
// bandwidth (Fig. 5). The parent continues after issuing the spawn packet.
func (t *Thread) SpawnAt(nl int, fn func(*Thread)) {
	s := t.sys
	if nl < 0 || nl >= len(s.nodelets) {
		panic(fmt.Sprintf("machine: spawn at nodelet %d of %d", nl, len(s.nodelets)))
	}
	t.Compute(s.Cfg.LocalSpawnCycles)
	t.spawnOn(nl, s.spawnArrival(t.nodelet, nl, t.p.Now()), fn)
}

//emu:hotpath the spawn path: pooled child thread, launch event instead of a closure
func (t *Thread) spawnOn(nl int, at sim.Time, fn func(*Thread)) {
	s := t.sys
	if t.children == nil {
		t.children = &t.childJoin
	}
	t.children.Add(1)
	if nl == t.nodelet {
		s.Counters.localSpawns[nl]++
	} else {
		s.Counters.remoteSpawns[nl]++
	}
	s.emit(trace.KindSpawn, t.nodelet, nl, 0, t.p.Now(), at)
	child := s.acquireThread()
	child.nodelet = nl
	child.body = fn
	child.parentJoin = t.children
	s.Eng.LaunchAt(at, "t", child)
}

// Sync blocks until every child this thread has spawned so far finishes
// (cilk_sync). A thread with no outstanding children returns immediately.
// While blocked, the thread's hardware context is saved to memory and its
// slot released — the runtime behaviour that lets deep spawn trees exceed
// the per-nodelet context count without deadlocking.
func (t *Thread) Sync() {
	if t.children == nil || t.children.Pending() == 0 {
		return
	}
	t.parkDuring(func() { t.children.Wait(t.p) })
}

// parkDuring releases the thread's context slot around a blocking wait and
// re-acquires it afterwards (possibly waiting for a free slot).
func (t *Thread) parkDuring(wait func()) {
	t.sys.nodelets[t.nodelet].slots.Release()
	wait()
	t.sys.nodelets[t.nodelet].slots.Acquire(t.p)
}

// Peek functionally reads a word the thread's resident nodelet owns without
// consuming simulated time. It is for setup and verification code; timed
// kernel code must use Load. Peeking remote memory panics — that would be a
// modelling bug (a free remote read).
func (t *Thread) Peek(a memsys.Addr) uint64 {
	if a.Nodelet() != t.nodelet {
		panic(fmt.Sprintf("machine: Peek of remote address %v from nodelet %d", a, t.nodelet))
	}
	return t.sys.Mem.Read(a)
}

// Poke functionally writes a local word without consuming simulated time.
// Like Peek, it is restricted to the resident nodelet.
func (t *Thread) Poke(a memsys.Addr, v uint64) {
	if a.Nodelet() != t.nodelet {
		panic(fmt.Sprintf("machine: Poke of remote address %v from nodelet %d", a, t.nodelet))
	}
	t.sys.Mem.Write(a, v)
}

package machine

import (
	"fmt"

	"emuchick/internal/fault"
	"emuchick/internal/memsys"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// CThread is one Gossamer threadlet: a lightweight context (the real thing
// is 16 registers, a PC, a stack counter and status — under 200 bytes)
// resident on some nodelet. Kernels are written against this API the way
// the paper's Cilk benchmarks are written against the Emu toolchain:
//
//   - CLoad of a local word costs an issue slot, channel occupancy, and
//     memory latency.
//   - CLoad of a REMOTE word first migrates the thread to the word's
//     nodelet ("any remote read triggers a migration").
//   - Stores to remote words are posted through the network without
//     migrating, and atomics are executed by memory-side processors, both
//     matching section II.
//   - CSpawn creates a child threadlet locally; CSpawnAt creates it on a
//     chosen nodelet (a "remote spawn"); CSync joins all children.
//
// A CThread is an explicit state machine the event loop resumes by a method
// call. A CThread plus its sim.Proc is the entire saved context of a parked
// threadlet — a couple of hundred bytes, like the register file the
// hardware swaps in and out — which is what makes millions of resident
// contexts simulable. Contexts are pooled by the System (see
// acquireCThread), and the child join is embedded rather than allocated:
// children all finish before their parent's implicit end-of-body sync
// completes, so the embedded join never outlives its CThread.
//
// Bodies implement CBody. A body method that can block returns parked=true
// after arranging its continuation, and the body's Step must immediately
// return false; when the pending micro-op completes, the wrapper re-enters
// Step. Bodies never see the op machinery below.
type CThread struct {
	sys        *System
	p          *sim.Proc
	nodelet    int
	core       int
	children   *sim.Join // nil until the first spawn, then &childJoin
	childJoin  sim.Join
	parentJoin *sim.Join
	body       CBody

	phase cphase // lifecycle position (start/body/sync/finish)

	// The pending micro-op: which operation is mid-flight across a park,
	// and how far through its stages it has advanced.
	op       cop
	opStage  uint8
	opAddr   memsys.Addr
	opIssued sim.Time
	val      uint64 // landing register of the last CLoad

	// Migration sub-machine state (opLoad stage 0 and opMigrate share it).
	migStage   uint8
	migTarget  int
	migTrigger memsys.Addr
	migAttempt int
	migDepart  sim.Time

	// Spawn op state.
	spawnNl   int
	spawnBody CBody
}

// CBody is the body of a threadlet, written as a resumable state machine.
// Step resumes the
// body with no micro-op pending; it returns true when the body has run to
// completion, or false after a CThread operation reported parked=true.
type CBody interface {
	Step(t *CThread) bool
}

// cphase is a CThread's position in the thread lifecycle: claim a context
// slot, run the body, join the children, release and notify the parent.
type cphase uint8

const (
	cphStart    cphase = iota // waiting to claim the initial context slot
	cphAcquired               // slot held; assign a core, emit thread start
	cphBody                   // driving the body (and its pending micro-ops)
	cphSync                   // implicit end-of-body cilk sync in flight
	cphFinish                 // release, notify parent, recycle
)

// cop identifies the micro-op a parked CThread is in the middle of.
type cop uint8

const (
	opNone    cop = iota
	opDelay       // a pure sleep; nothing to do on completion
	opLoad        // migrate-if-remote, issue, then read + emit on completion
	opStore       // local store: issue, then write + emit on completion
	opMigrate     // explicit MigrateTo
	opSpawn       // parent-side spawn cost, then the child launch
	opSync        // children joined; re-acquire a context slot
)

// StepProc is the sim.Stepper hook: it drives the lifecycle phases, running
// any pending micro-op to completion before re-entering the body.
func (t *CThread) StepProc(p *sim.Proc) {
	for {
		switch t.phase {
		case cphStart:
			t.p = p
			t.phase = cphAcquired
			if t.sys.nodelets[t.nodelet].slots.AcquireCont(p) {
				return
			}
		case cphAcquired:
			s := t.sys
			home := s.nodelets[t.nodelet]
			t.core = home.nextCore
			home.nextCore = (home.nextCore + 1) % len(home.cores)
			s.Counters.threadStarted()
			s.emit(trace.KindThreadStart, t.nodelet, -1, 0, p.Now(), p.Now())
			t.phase = cphBody
		case cphBody:
			if t.op != opNone && t.runOp() {
				return
			}
			if !t.body.Step(t) {
				return
			}
			// Implicit cilk sync at body end, matching Cilk semantics.
			t.phase = cphSync
			if t.CSync() {
				return
			}
		case cphSync:
			if t.op != opNone && t.runOp() {
				return
			}
			t.phase = cphFinish
		case cphFinish:
			s := t.sys
			s.nodelets[t.nodelet].slots.Release()
			s.Counters.threadFinished()
			s.emit(trace.KindThreadEnd, t.nodelet, -1, 0, p.Now(), p.Now())
			if t.parentJoin != nil {
				t.parentJoin.Done()
			}
			s.releaseCThread(t)
			p.Exit()
			return
		}
	}
}

// runOp advances the pending micro-op; parked=true means a wait was
// scheduled and the caller must return from StepProc.
func (t *CThread) runOp() (parked bool) {
	for {
		switch t.op {
		case opNone:
			return false
		case opDelay:
			// The sleep completed by the time we were re-dispatched.
			t.op = opNone
			return false
		case opLoad:
			switch t.opStage {
			case 0: // migrating to the word's home nodelet first
				if t.migStep() {
					return true
				}
				t.opStage = 1
			case 1: // issue the local access
				t.sys.Counters.localReads[t.nodelet]++
				t.opIssued = t.p.Now()
				t.opStage = 2
				if t.localAccess() {
					return true
				}
			case 2: // access complete: observe, then read
				s := t.sys
				s.emit(trace.KindLoad, t.nodelet, -1, t.opAddr, t.opIssued, t.p.Now())
				t.val = s.Mem.Read(t.opAddr)
				t.op = opNone
				return false
			}
		case opStore:
			switch t.opStage {
			case 0: // issue the local access
				t.sys.Counters.localWrites[t.nodelet]++
				t.opIssued = t.p.Now()
				t.opStage = 1
				if t.localAccess() {
					return true
				}
			case 1: // access complete: write, then observe
				s := t.sys
				s.Mem.Write(t.opAddr, t.val)
				s.emit(trace.KindStore, t.nodelet, -1, t.opAddr, t.opIssued, t.p.Now())
				t.op = opNone
				return false
			}
		case opMigrate:
			if t.migStep() {
				return true
			}
			t.op = opNone
			return false
		case opSpawn:
			switch t.opStage {
			case 0: // the parent-side spawn cost
				t.opStage = 1
				if t.compute(t.sys.Cfg.LocalSpawnCycles) {
					return true
				}
			case 1: // cost paid: launch the child
				s := t.sys
				t.spawnOnCont(t.spawnNl, s.spawnArrival(t.nodelet, t.spawnNl, t.p.Now()), t.spawnBody)
				t.spawnBody = nil
				t.op = opNone
				return false
			}
		case opSync:
			switch t.opStage {
			case 0: // children joined: reclaim a context slot
				t.opStage = 1
				if t.sys.nodelets[t.nodelet].slots.AcquireCont(t.p) {
					return true
				}
			case 1:
				t.op = opNone
				return false
			}
		default:
			panic(fmt.Sprintf("machine: unknown continuation op %d", t.op))
		}
	}
}

// localAccess books one blocking 8-byte access on the resident nodelet's
// channel: issue at the core, occupy the channel, then the load-to-use
// latency. parked=true means the sleep to its completion time was scheduled.
func (t *CThread) localAccess() (parked bool) {
	s := t.sys
	nl := s.nodelets[t.nodelet]
	_, issued := nl.cores[t.core].Acquire(t.p.Now(), s.clock.Cycles(s.Cfg.MemIssueCycles))
	_, served := nl.channel.Acquire(issued, s.Cfg.WordAccessTime)
	return t.p.SleepUntil(served + s.Cfg.MemLatency)
}

// compute books cycles of core work on the threadlet's core.
func (t *CThread) compute(cycles int64) (parked bool) {
	if cycles <= 0 {
		return false
	}
	s := t.sys
	nl := s.nodelets[t.nodelet]
	_, done := nl.cores[t.core].Acquire(t.p.Now(), s.clock.Cycles(cycles))
	s.Counters.computeCycles[t.nodelet] += uint64(cycles)
	return t.p.SleepUntil(done)
}

// migStep drives the migration sub-machine in stages: fault backoff at the
// source (holding the slot), departure through the migration engine and
// fabric, arrival, slot acquisition, core assignment. beginMigrate must have
// set the mig fields.
//
// While a fault blocks the migration — a migration-engine stall window, or
// a fabric-link outage when the move crosses node cards — the threadlet
// keeps its context slot and polls with exponential backoff (the real
// backpressure a stalled engine exerts: the slot stays occupied, starving
// inbound work), which the StalledMigrations / MigrationRetries /
// BackoffCycles counters measure. Windows are validated time-bounded, so
// the backoff always ends.
func (t *CThread) migStep() (parked bool) {
	s := t.sys
	for {
		node := s.Cfg.NodeOf(t.nodelet)
		crossing := s.Cfg.NodeOf(t.migTarget) != node
		switch t.migStage {
		case 0: // fault backoff: hold the slot until the window clears
			if s.faults != nil {
				if _, blocked := s.faults.BlockedUntil(node, crossing, t.migDepart); blocked {
					c := s.Counters
					if t.migAttempt == 0 {
						c.stalledMigrations[t.nodelet]++
					}
					c.migrationRetries[t.nodelet]++
					cyc := s.faults.BackoffCycles(t.migAttempt)
					c.backoffCycles[t.nodelet] += uint64(cyc)
					resume := t.migDepart + s.clock.Cycles(cyc)
					s.emit(trace.KindFaultStall, t.nodelet, t.migTarget, 0, t.migDepart, resume)
					t.migAttempt++
					t.migDepart = resume
					if t.p.SleepUntil(resume) {
						return true
					}
					continue // re-check the window at the new depart time
				}
			}
			t.migStage = 1
		case 1: // depart: release the slot, book the engine and the fabric
			s.nodelets[t.nodelet].slots.Release()
			engine := s.migEngines[node]
			_, sent := engine.Acquire(t.migDepart, s.migSvc)
			flight := s.Cfg.MigrationLatency
			if crossing {
				link := s.links[node]
				xfer := s.ctxXfer
				if s.faults != nil {
					xfer = fault.Scale(xfer, s.faults.LinkScale(node, sent))
				}
				_, sent = link.Acquire(sent, xfer)
				flight += s.Cfg.InterNodeLatency
			}
			s.emit(trace.KindMigrate, t.nodelet, t.migTarget, t.migTrigger, t.migDepart, sent+flight)
			t.migStage = 2
			if t.p.SleepUntil(sent + flight) {
				return true
			}
		case 2: // arrived: claim a context slot at the destination
			t.nodelet = t.migTarget
			t.migStage = 3
			if s.nodelets[t.nodelet].slots.AcquireCont(t.p) {
				return true
			}
		case 3: // slot claimed: assign a core
			to := s.nodelets[t.nodelet]
			t.core = to.nextCore
			to.nextCore = (to.nextCore + 1) % len(to.cores)
			return false
		}
	}
}

// beginMigrate validates the target and records the migration bookkeeping
// (counters before the backoff loop).
func (t *CThread) beginMigrate(target int, trigger memsys.Addr) {
	s := t.sys
	if target < 0 || target >= len(s.nodelets) {
		panic(fmt.Sprintf("machine: migrate to nodelet %d of %d", target, len(s.nodelets)))
	}
	s.Counters.migrationsOut[t.nodelet]++
	s.Counters.migrationsIn[target]++
	t.migTarget = target
	t.migTrigger = trigger
	t.migAttempt = 0
	t.migDepart = t.p.Now()
	t.migStage = 0
}

// System returns the machine this threadlet runs on.
func (t *CThread) System() *System { return t.sys }

// Nodelet reports the nodelet the threadlet currently resides on.
func (t *CThread) Nodelet() int { return t.nodelet }

// Now reports the current simulated time.
func (t *CThread) Now() sim.Time { return t.p.Now() }

// Value returns the word the last completed CLoad read.
func (t *CThread) Value() uint64 { return t.val }

// CCompute charges cycles of non-memory work. parked=true means Step must
// return; the work is complete when Step is re-entered.
func (t *CThread) CCompute(cycles int64) (parked bool) {
	if cycles <= 0 {
		return false
	}
	t.op = opDelay
	if t.compute(cycles) {
		return true
	}
	t.op = opNone
	return false
}

// CLoad reads the word at a, migrating to its home nodelet first when a is
// remote (the read is the migration's trigger address). The value is
// available from Value() once the op completes.
func (t *CThread) CLoad(a memsys.Addr) (parked bool) {
	t.op = opLoad
	t.opAddr = a
	if home := a.Nodelet(); home != t.nodelet {
		t.opStage = 0
		t.beginMigrate(home, a) // the read is the migration's trigger address
	} else {
		t.opStage = 1
	}
	return t.runOp()
}

// CStore writes v to the word at a. A local store blocks like a load; a
// remote store is posted through the network without migrating (the thread
// is charged only the issue cycle, and stalls only when the destination's
// finite remote queue is saturated).
//
// Memory-ordering note: the functional value becomes visible immediately
// even though the modelled delivery completes later, so programs that race
// a posted store against a reader observe the store "early". The paper's
// kernels (and this repository's) partition writers, or join with CSync
// before reading, exactly as real Emu programs must.
func (t *CThread) CStore(a memsys.Addr, v uint64) (parked bool) {
	s := t.sys
	home := a.Nodelet()
	if home == t.nodelet {
		t.op = opStore
		t.opStage = 0
		t.opAddr = a
		t.val = v
		return t.runOp()
	}
	// Posted remote store: every effect lands at issue time; only the
	// backpressure sleep can park.
	nl := s.nodelets[t.nodelet]
	_, issued := nl.cores[t.core].Acquire(t.p.Now(), s.clock.Cycles(s.Cfg.MemIssueCycles))
	arrive := issued + s.flightLatency(t.nodelet, home)
	_, served := s.nodelets[home].channel.Acquire(arrive, s.Cfg.WordAccessTime)
	s.Counters.remoteStores[home]++
	s.Mem.Write(a, v)
	s.emit(trace.KindRemoteStore, t.nodelet, home, a, issued, served)
	return t.sleepOp(s.postedAccept(issued, served))
}

// CRemoteAdd posts an atomic add to the word at a without waiting for it —
// the "remote update" idiom Emu programs use to accumulate into far memory.
// The memory-side processor of a's home nodelet applies it, so the
// threadlet never migrates: it pays the issue slot on its core, the flight
// to home's channel when home is remote, and two word times of
// read-modify-write there. Only the backpressure sleep can park.
func (t *CThread) CRemoteAdd(a memsys.Addr, delta uint64) (parked bool) {
	s := t.sys
	s.Mem.Write(a, s.Mem.Read(a)+delta)
	home := a.Nodelet()
	nl := s.nodelets[t.nodelet]
	_, issued := nl.cores[t.core].Acquire(t.p.Now(), s.clock.Cycles(s.Cfg.MemIssueCycles))
	arrive := issued
	if home != t.nodelet {
		arrive += s.flightLatency(t.nodelet, home)
	}
	_, served := s.nodelets[home].channel.Acquire(arrive, 2*s.Cfg.WordAccessTime)
	s.Counters.atomics[home]++
	s.emit(trace.KindAtomic, t.nodelet, home, a, issued, served)
	return t.sleepOp(s.postedAccept(issued, served))
}

// sleepOp parks the threadlet until the given time as a pending op with
// nothing left to do on completion; parked=false means the sleep completed
// in place.
func (t *CThread) sleepOp(until sim.Time) (parked bool) {
	t.op = opDelay
	if t.p.SleepUntil(until) {
		return true
	}
	t.op = opNone
	return false
}

// CMigrateTo moves the threadlet's context to the target nodelet: it
// releases its context slot, queues at the local migration-engine egress
// port, flies across the (possibly inter-node) fabric, and claims a context
// slot at the destination. Migrating to the current nodelet is a no-op.
func (t *CThread) CMigrateTo(target int) (parked bool) {
	if target == t.nodelet {
		return false
	}
	t.op = opMigrate
	t.beginMigrate(target, 0)
	return t.runOp()
}

// CSpawn creates a child threadlet on the current nodelet (cilk_spawn). The
// parent is charged the spawn cost; the child becomes runnable once it
// obtains a context slot. The child's body is itself a CBody; children are
// joined by CSync (or the implicit sync when this body's Step returns true).
func (t *CThread) CSpawn(body CBody) (parked bool) {
	t.op = opSpawn
	t.opStage = 0
	t.spawnNl = t.nodelet
	t.spawnBody = body
	return t.runOp()
}

// CSpawnAt creates a child threadlet on the given nodelet — Emu's "remote
// spawn", which the paper shows is essential for saturating multi-nodelet
// bandwidth (Fig. 5). The parent continues after issuing the spawn packet.
func (t *CThread) CSpawnAt(nl int, body CBody) (parked bool) {
	if nl < 0 || nl >= len(t.sys.nodelets) {
		panic(fmt.Sprintf("machine: spawn at nodelet %d of %d", nl, len(t.sys.nodelets)))
	}
	t.op = opSpawn
	t.opStage = 0
	t.spawnNl = nl
	t.spawnBody = body
	return t.runOp()
}

// spawnOnCont accounts and launches a child: the child's first dispatch is
// queued when the launch event fires at its arrival time.
func (t *CThread) spawnOnCont(nl int, at sim.Time, body CBody) {
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
	child := s.acquireCThread()
	child.nodelet = nl
	child.body = body
	child.parentJoin = t.children
	s.Eng.LaunchContAt(at, "t", child)
}

// CSync joins all children spawned so far (cilk_sync). A threadlet with no
// outstanding children continues at once. While blocked, the context is
// saved to memory and its slot released, then re-acquired after the join —
// the runtime behaviour that lets deep spawn trees exceed the per-nodelet
// context count without deadlocking.
func (t *CThread) CSync() (parked bool) {
	if t.children == nil || t.children.Pending() == 0 {
		return false
	}
	t.sys.nodelets[t.nodelet].slots.Release()
	t.op = opSync
	t.opStage = 0
	t.children.WaitCont(t.p) // Pending > 0, so this always parks
	return true
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

// flightLatency is the one-way network flight time from nodelet src to the
// target nodelet's memory-side processor: the base migration latency, plus
// the inter-node hop when crossing node cards.
func (s *System) flightLatency(src, target int) sim.Time {
	lat := s.Cfg.MigrationLatency
	if s.Cfg.NodeOf(target) != s.Cfg.NodeOf(src) {
		lat += s.Cfg.InterNodeLatency
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
	}
	return at
}

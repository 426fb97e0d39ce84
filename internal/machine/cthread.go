package machine

import (
	"fmt"

	"emuchick/internal/fault"
	"emuchick/internal/memsys"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// CThread is the continuation-form Gossamer threadlet: the same machine
// model as Thread, expressed as an explicit state machine the event loop
// resumes by a method call instead of a goroutine it hands a channel token
// to. A CThread plus its sim.Proc is the entire saved context of a parked
// threadlet — a couple of hundred bytes, like the <200 B register file the
// hardware swaps in and out — which is what makes rack-scale configurations
// (millions of resident contexts) simulable.
//
// Every operation mirrors its Thread counterpart op for op: the same
// resource acquisitions in the same order at the same times, counters
// bumped before waits, trace events and functional memory effects on the
// same side of each wait. The two engines therefore produce bit-identical
// (at, seq) event streams for the same kernel — the byte-identical-figures
// contract — which cthread_test.go and the kernel and figure golden tests
// enforce.
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

// CBody is the body of a continuation-form threadlet: the state-machine
// analogue of the func(*Thread) a goroutine thread runs. Step resumes the
// body with no micro-op pending; it returns true when the body has run to
// completion, or false after a CThread operation reported parked=true.
type CBody interface {
	Step(t *CThread) bool
}

// cphase is a CThread's position in the thread lifecycle that Thread.RunProc
// expresses as straight-line code.
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
// any pending micro-op to completion before re-entering the body, exactly
// mirroring the straight-line order of Thread.RunProc.
//
//emu:nohandoff
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
			//lint:allow nohandoff CBody implementations live downstream (kernels, cilk) and each Step carries its own //emu:nohandoff annotation
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
//
//emu:nohandoff
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
// channel — Thread.localWordAccess restated; parked=true means the sleep to
// its completion time was scheduled.
//
//emu:nohandoff
func (t *CThread) localAccess() (parked bool) {
	s := t.sys
	nl := s.nodelets[t.nodelet]
	_, issued := nl.cores[t.core].Acquire(t.p.Now(), s.clock.Cycles(s.Cfg.MemIssueCycles))
	_, served := nl.channel.Acquire(issued, s.Cfg.WordAccessTime)
	return t.p.SleepUntil(served + s.Cfg.MemLatency)
}

// compute books cycles of core work — Thread.Compute restated.
//
//emu:nohandoff
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

// migStep drives the migration sub-machine — Thread.migrate restated as
// stages: fault backoff at the source (holding the slot), departure through
// the migration engine and fabric, arrival, slot acquisition, core
// assignment. beginMigrate must have set the mig fields.
//
//emu:nohandoff
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
				if s.Cfg.ChassisOf(t.migTarget) != s.Cfg.ChassisOf(t.nodelet) {
					flight += s.Cfg.InterChassisLatency
				}
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

// beginMigrate validates the target and records the migration bookkeeping,
// mirroring the entry of Thread.migrate (counters before the backoff loop).
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

// CCompute charges cycles of non-memory work — Thread.Compute. parked=true
// means Step must return; the work is complete when Step is re-entered.
//
//emu:nohandoff
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

// CLoad reads the word at a — Thread.Load. It migrates first when a is
// remote; the value is available from Value() once the op completes.
//
//emu:nohandoff
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

// CStore writes v to the word at a — Thread.Store: a local store blocks
// like a load, a remote store is posted without migrating.
//
//emu:nohandoff
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
	t.op = opDelay
	if t.p.SleepUntil(s.postedAccept(issued, served)) {
		return true
	}
	t.op = opNone
	return false
}

// CRemoteAdd posts an atomic add to the word at a without waiting for it —
// Thread.RemoteAdd: the memory-side processor of a's home nodelet applies
// it, so the threadlet never migrates; only the backpressure sleep can park.
//
//emu:nohandoff
func (t *CThread) CRemoteAdd(a memsys.Addr, delta uint64) (parked bool) {
	s := t.sys
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
	s.Mem.Write(a, s.Mem.Read(a)+delta)
	t.op = opDelay
	if t.p.SleepUntil(s.postedAccept(issued, served)) {
		return true
	}
	t.op = opNone
	return false
}

// CMigrateTo moves the threadlet's context to the target nodelet —
// Thread.MigrateTo. Migrating to the current nodelet is a no-op.
//
//emu:nohandoff
func (t *CThread) CMigrateTo(target int) (parked bool) {
	if target == t.nodelet {
		return false
	}
	t.op = opMigrate
	t.beginMigrate(target, 0)
	return t.runOp()
}

// CSpawn creates a child threadlet on the current nodelet — Thread.Spawn.
// The child's body is itself a CBody; children are joined by CSync (or the
// implicit sync when this body's Step returns true).
//
//emu:nohandoff
func (t *CThread) CSpawn(body CBody) (parked bool) {
	t.op = opSpawn
	t.opStage = 0
	t.spawnNl = t.nodelet
	t.spawnBody = body
	return t.runOp()
}

// CSpawnAt creates a child threadlet on the given nodelet — Thread.SpawnAt.
//
//emu:nohandoff
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

// spawnOnCont is Thread.spawnOn for a continuation child: same counters,
// same trace event, same launch-event pattern — the child's first dispatch
// claims its seq when the launch fires at its arrival time.
//
//emu:hotpath the continuation spawn path: pooled child, launch event, no closure
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

// CSync joins all children spawned so far — Thread.Sync: the context slot is
// released while blocked and re-acquired after the join, letting deep spawn
// trees exceed the per-nodelet context count without deadlocking.
//
//emu:nohandoff
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

// CPeek functionally reads a local word without consuming simulated time —
// Thread.Peek, with the same remote-access panic.
func (t *CThread) CPeek(a memsys.Addr) uint64 {
	if a.Nodelet() != t.nodelet {
		panic(fmt.Sprintf("machine: Peek of remote address %v from nodelet %d", a, t.nodelet))
	}
	return t.sys.Mem.Read(a)
}

// CPoke functionally writes a local word without consuming simulated time —
// Thread.Poke.
func (t *CThread) CPoke(a memsys.Addr, v uint64) {
	if a.Nodelet() != t.nodelet {
		panic(fmt.Sprintf("machine: Poke of remote address %v from nodelet %d", a, t.nodelet))
	}
	t.sys.Mem.Write(a, v)
}

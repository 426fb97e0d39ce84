package machine

import (
	"testing"
	"unsafe"

	"emuchick/internal/fault"
	"emuchick/internal/memsys"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// TestCThreadUnderContextBound pins the machine-layer half of the
// threadlet-scale claim: a CThread is the whole continuation state of a
// simulated Emu thread — phase, pending micro-op, migration cursor, spawn
// slot — and it must stay within the <200 B hardware thread context the
// paper reports, matching the bound sim.Proc's own size test enforces.
func TestCThreadUnderContextBound(t *testing.T) {
	if size := unsafe.Sizeof(CThread{}); size >= 200 {
		t.Fatalf("machine.CThread is %d bytes; the continuation thread state must stay under the 200 B hardware context bound", size)
	}
}

// The engine-equivalence suite: every scenario is written twice — once
// against the goroutine Thread API and once as a CBody state machine with
// the identical operation sequence — and the two runs must agree on elapsed
// time, every per-nodelet counter, and the full trace event/sample streams
// including timestamps. This is the machine-layer half of the
// byte-identical-figures contract.

// eqCollector records the full observer stream for comparison.
type eqCollector struct {
	events  []trace.Event
	samples []trace.Sample
}

func (c *eqCollector) Event(e trace.Event)   { c.events = append(c.events, e) }
func (c *eqCollector) Sample(s trace.Sample) { c.samples = append(c.samples, s) }

// runEngines runs the scenario on both proc engines and fails the test on
// the first divergence. mk builds the scenario against a fresh system (so
// allocations land identically) and returns the two equivalent bodies.
func runEngines(t *testing.T, cfg Config, plan *fault.Plan, mk func(s *System) (func(*Thread), CBody)) {
	t.Helper()
	run := func(cont bool) (sim.Time, *eqCollector, []NodeletCounters) {
		s := NewSystem(cfg)
		if plan != nil {
			s.InjectFaults(plan)
		}
		col := &eqCollector{}
		s.Attach(col)
		g, c := mk(s)
		var elapsed sim.Time
		var err error
		if cont {
			elapsed, err = s.RunCont(c)
		} else {
			elapsed, err = s.Run(g)
		}
		if err != nil {
			t.Fatalf("run (cont=%v) failed: %v", cont, err)
		}
		return elapsed, col, s.Counters.Snapshot()
	}
	ge, gcol, gcnt := run(false)
	ce, ccol, ccnt := run(true)

	if ge != ce {
		t.Errorf("elapsed time diverged: goroutine %v, continuation %v", ge, ce)
	}
	if !snapshotEqual(gcnt, ccnt) {
		for i := range gcnt {
			if gcnt[i] != ccnt[i] {
				t.Errorf("counters diverged at nodelet %d:\n  goroutine    %+v\n  continuation %+v", i, gcnt[i], ccnt[i])
			}
		}
	}
	if len(gcol.events) != len(ccol.events) {
		t.Fatalf("event streams diverged in length: goroutine %d, continuation %d", len(gcol.events), len(ccol.events))
	}
	for i := range gcol.events {
		if gcol.events[i] != ccol.events[i] {
			t.Fatalf("event %d diverged:\n  goroutine    %+v\n  continuation %+v", i, gcol.events[i], ccol.events[i])
		}
	}
	if len(gcol.samples) != len(ccol.samples) {
		t.Fatalf("sample streams diverged in length: goroutine %d, continuation %d", len(gcol.samples), len(ccol.samples))
	}
	for i := range gcol.samples {
		if gcol.samples[i] != ccol.samples[i] {
			t.Fatalf("sample %d diverged:\n  goroutine    %+v\n  continuation %+v", i, gcol.samples[i], ccol.samples[i])
		}
	}
}

// ctLoadOnce loads one word and exits — the child body of the mixed test.
type ctLoadOnce struct {
	a  memsys.Addr
	pc int
}

func (b *ctLoadOnce) Step(t *CThread) bool {
	if b.pc == 0 {
		b.pc = 1
		if t.CLoad(b.a) {
			return false
		}
	}
	return true
}

// ctMixed exercises every CThread operation kind once, in lockstep with its
// goroutine twin in TestContThreadMatchesGoroutineMixedOps.
type ctMixed struct {
	local, remote memsys.Local
	pc            int
}

func (b *ctMixed) Step(t *CThread) bool {
	for {
		switch b.pc {
		case 0:
			b.pc++
			if t.CLoad(b.local.At(0)) {
				return false
			}
		case 1:
			b.pc++
			if t.CStore(b.local.At(1), 7) {
				return false
			}
		case 2:
			b.pc++
			if t.CStore(b.remote.At(0), 9) {
				return false
			}
		case 3:
			b.pc++
			if t.CCompute(25) {
				return false
			}
		case 4:
			b.pc++
			if t.CSpawn(&ctLoadOnce{a: b.local.At(0)}) {
				return false
			}
		case 5:
			b.pc++
			if t.CSync() {
				return false
			}
		case 6:
			b.pc++
			if t.CMigrateTo(5) {
				return false
			}
		case 7:
			b.pc++
			if t.CLoad(b.local.At(0)) { // remote now: migrates back
				return false
			}
		default:
			return true
		}
	}
}

func TestContThreadMatchesGoroutineMixedOps(t *testing.T) {
	runEngines(t, HardwareChick(), nil, func(s *System) (func(*Thread), CBody) {
		local := s.Mem.AllocLocal(0, 2)
		remote := s.Mem.AllocLocal(3, 1)
		g := func(th *Thread) {
			th.Load(local.At(0))
			th.Store(local.At(1), 7)
			th.Store(remote.At(0), 9)
			th.Compute(25)
			th.Spawn(func(c *Thread) { c.Load(local.At(0)) })
			th.Sync()
			th.MigrateTo(5)
			th.Load(local.At(0)) // remote now: migrates back
		}
		return g, &ctMixed{local: local, remote: remote}
	})
}

// ctTreeChild: load a local word, compute a little.
type ctTreeChild struct {
	arr memsys.Striped
	pc  int
}

func (b *ctTreeChild) Step(t *CThread) bool {
	for {
		switch b.pc {
		case 0:
			b.pc++
			if t.CLoad(b.arr.At(t.Nodelet())) {
				return false
			}
		case 1:
			b.pc++
			if t.CCompute(10) {
				return false
			}
		default:
			return true
		}
	}
}

// ctTreeRoot fans fan children round-robin across nodelets, joined by the
// implicit end-of-body sync.
type ctTreeRoot struct {
	arr  memsys.Striped
	fan  int
	next int
}

func (b *ctTreeRoot) Step(t *CThread) bool {
	for b.next < b.fan {
		nl := b.next % t.System().Nodelets()
		b.next++
		if t.CSpawnAt(nl, &ctTreeChild{arr: b.arr}) {
			return false
		}
	}
	return true
}

// TestContThreadMatchesGoroutineSpawnTree forces context-slot contention
// (2 contexts per nodelet, 4 children each plus the root): both engines must
// park identically in slot queues and during the implicit sync's
// release/re-acquire.
func TestContThreadMatchesGoroutineSpawnTree(t *testing.T) {
	cfg := HardwareChick()
	cfg.ThreadsPerGC = 2 // squeeze: ContextsPerNodelet() == 2
	const fan = 32
	runEngines(t, cfg, nil, func(s *System) (func(*Thread), CBody) {
		arr := s.Mem.AllocStriped(s.Nodelets())
		g := func(th *Thread) {
			for i := 0; i < fan; i++ {
				th.SpawnAt(i%th.System().Nodelets(), func(c *Thread) {
					c.Load(arr.At(c.Nodelet()))
					c.Compute(10)
				})
			}
		}
		return g, &ctTreeRoot{arr: arr, fan: fan}
	})
}

// ctPing ping-pongs between two nodelets, loading a word on each side.
type ctPing struct {
	arr          memsys.Striped
	a, b, rounds int
	i, pc        int
}

func (p *ctPing) Step(t *CThread) bool {
	for p.i < p.rounds {
		switch p.pc {
		case 0:
			p.pc = 1
			if t.CMigrateTo(p.b) {
				return false
			}
		case 1:
			p.pc = 2
			if t.CLoad(p.arr.At(p.b)) {
				return false
			}
		case 2:
			p.pc = 3
			if t.CMigrateTo(p.a) {
				return false
			}
		case 3:
			p.pc = 0
			p.i++
			if t.CLoad(p.arr.At(p.a)) {
				return false
			}
		}
	}
	return true
}

func pingScenario(a, b, rounds int) func(s *System) (func(*Thread), CBody) {
	return func(s *System) (func(*Thread), CBody) {
		arr := s.Mem.AllocStriped(s.Nodelets())
		g := func(th *Thread) {
			for i := 0; i < rounds; i++ {
				th.MigrateTo(b)
				th.Load(arr.At(b))
				th.MigrateTo(a)
				th.Load(arr.At(a))
			}
		}
		return g, &ctPing{arr: arr, a: a, b: b, rounds: rounds}
	}
}

// TestContThreadMatchesGoroutineCrossNode drives migrations across node
// cards, exercising the migration engine, fabric link, and inter-node tier
// on both engines.
func TestContThreadMatchesGoroutineCrossNode(t *testing.T) {
	runEngines(t, HardwareChickNodes(2), nil, pingScenario(0, 12, 40))
}

// TestContThreadMatchesGoroutineCrossChassis drives migrations across the
// rack tier of FullSpeedRack, covering the inter-chassis hop in both
// engines' flight paths.
func TestContThreadMatchesGoroutineCrossChassis(t *testing.T) {
	// Nodelet 70 is on node 8, chassis 1; nodelet 0 is chassis 0.
	runEngines(t, FullSpeedRack(2), nil, pingScenario(0, 70, 25))
}

// TestContThreadMatchesGoroutineUnderFaults covers the migration backoff
// state machine: stall windows force both engines through the same retry
// sequence, FaultStall events included.
func TestContThreadMatchesGoroutineUnderFaults(t *testing.T) {
	plan := &fault.Plan{
		Stalls: []fault.Stall{{Duration: 40 * sim.Microsecond, Period: 100 * sim.Microsecond}},
	}
	runEngines(t, HardwareChick(), plan, pingScenario(0, 5, 60))
}

// ctAdder posts n remote adds into acc, alternating a far word and a word on
// its own nodelet.
type ctAdder struct {
	acc  memsys.Striped
	n, i int
}

func (b *ctAdder) Step(t *CThread) bool {
	for b.i < b.n {
		w := b.acc.At(0)
		if b.i%2 == 1 {
			w = b.acc.At(t.Nodelet())
		}
		b.i++
		if t.CRemoteAdd(w, uint64(b.i)) {
			return false
		}
	}
	return true
}

// ctAdderRoot spawns one adder per nodelet, round-robin.
type ctAdderRoot struct {
	acc       memsys.Striped
	fan, n, k int
}

func (b *ctAdderRoot) Step(t *CThread) bool {
	for b.k < b.fan {
		nl := b.k % t.System().Nodelets()
		b.k++
		if t.CSpawnAt(nl, &ctAdder{acc: b.acc, n: b.n}) {
			return false
		}
	}
	return true
}

// TestContThreadMatchesGoroutineRemoteAdd covers CRemoteAdd: enough posted
// adds converge on one word to back its queue up past the posted-operation
// bound, across node cards, and the memory-side sums must agree too.
func TestContThreadMatchesGoroutineRemoteAdd(t *testing.T) {
	const fan, n = 48, 40
	runEngines(t, HardwareChickNodes(2), nil, func(s *System) (func(*Thread), CBody) {
		acc := s.Mem.AllocStriped(s.Nodelets())
		g := func(th *Thread) {
			for k := 0; k < fan; k++ {
				th.SpawnAt(k%th.System().Nodelets(), func(c *Thread) {
					for i := 1; i <= n; i++ {
						w := acc.At(0)
						if i%2 == 0 {
							w = acc.At(c.Nodelet())
						}
						c.RemoteAdd(w, uint64(i))
					}
				})
			}
		}
		return g, &ctAdderRoot{acc: acc, fan: fan, n: n}
	})

	s := NewSystem(HardwareChickNodes(2))
	acc := s.Mem.AllocStriped(s.Nodelets())
	if _, err := s.RunCont(&ctAdderRoot{acc: acc, fan: fan, n: n}); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for i := 0; i < acc.Len(); i++ {
		sum += s.Mem.Read(acc.At(i))
	}
	if want := uint64(fan * n * (n + 1) / 2); sum != want {
		t.Fatalf("remote adds summed to %d, want %d", sum, want)
	}
	if got := s.Counters.TotalMigrations(); got != 0 {
		t.Fatalf("remote adds migrated %d times", got)
	}
}

// TestContThreadPoolRecycles: a spawn-heavy continuation run must reuse
// CThread contexts rather than allocating one per spawn — the pool high-water
// mark is the peak live count, not the total spawn count.
func TestContThreadPoolRecycles(t *testing.T) {
	s := NewSystem(HardwareChick())
	arr := s.Mem.AllocStriped(s.Nodelets())
	const fan = 200
	if _, err := s.RunCont(&ctTreeRoot{arr: arr, fan: fan}); err != nil {
		t.Fatal(err)
	}
	if s.Counters.ThreadsSpawned != fan+1 {
		t.Fatalf("spawned %d threads, want %d", s.Counters.ThreadsSpawned, fan+1)
	}
	// The pool's high-water mark is the peak of spawned-but-unfinished
	// contexts (launch precedes start, so it can exceed MaxLiveThreads),
	// but recycling must keep it far below the total spawn count.
	pooled := len(s.freeCThreads)
	if pooled == 0 {
		t.Fatal("no CThreads returned to the pool")
	}
	if pooled >= fan/2 {
		t.Fatalf("pool holds %d contexts after %d spawns — contexts are not recycled", pooled, fan)
	}
}

// TestRunContFunctionalResults: values stored by continuation threadlets land
// in memory exactly as the goroutine engine's do.
func TestRunContFunctionalResults(t *testing.T) {
	build := func() (*System, memsys.Local, memsys.Local) {
		s := NewSystem(HardwareChick())
		return s, s.Mem.AllocLocal(0, 2), s.Mem.AllocLocal(3, 1)
	}
	gs, glocal, gremote := build()
	if _, err := gs.Run(func(th *Thread) {
		th.Store(glocal.At(1), 7)
		th.Store(gremote.At(0), 9)
	}); err != nil {
		t.Fatal(err)
	}
	cs, clocal, cremote := build()
	if _, err := cs.RunCont(&ctMixed{local: clocal, remote: cremote}); err != nil {
		t.Fatal(err)
	}
	if got, want := cs.Mem.Read(clocal.At(1)), gs.Mem.Read(glocal.At(1)); got != want {
		t.Fatalf("local store: continuation wrote %d, goroutine %d", got, want)
	}
	if got, want := cs.Mem.Read(cremote.At(0)), gs.Mem.Read(gremote.At(0)); got != want {
		t.Fatalf("remote store: continuation wrote %d, goroutine %d", got, want)
	}
}

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

// The engine-equivalence suite: every scenario below once ran on both the
// goroutine Thread and CThread, and the two had to agree on elapsed time,
// every per-nodelet counter, and the full trace event/sample streams
// including timestamps. The goroutine runs are recorded as golden digests
// (golden_test.go), and each scenario must still reproduce its digest.

// eqCollector records the full observer stream for comparison.
type eqCollector struct {
	events  []trace.Event
	samples []trace.Sample
}

func (c *eqCollector) Event(e trace.Event)   { c.events = append(c.events, e) }
func (c *eqCollector) Sample(s trace.Sample) { c.samples = append(c.samples, s) }

// runRecorded runs the scenario mk builds against a fresh system and fails
// the test on any drift from the digest recorded from its goroutine twin.
func runRecorded(t *testing.T, cfg Config, plan *fault.Plan, want string, mk func(s *System) CBody) {
	t.Helper()
	s := NewSystem(cfg)
	if plan != nil {
		s.InjectFaults(plan)
	}
	col := &eqCollector{}
	s.Attach(col)
	elapsed, err := s.Run(mk(s))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	checkDigest(t, "run", scenarioDigest(elapsed, col, s), want)
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

// ctMixed exercises every CThread operation kind once.
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
	runRecorded(t, HardwareChick(), nil, mixedOpsDigest, func(s *System) CBody {
		return &ctMixed{local: s.Mem.AllocLocal(0, 2), remote: s.Mem.AllocLocal(3, 1)}
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
// (2 contexts per nodelet, 4 children each plus the root): threadlets must
// park exactly as the goroutine threads did in slot queues and during the
// implicit sync's release/re-acquire.
func TestContThreadMatchesGoroutineSpawnTree(t *testing.T) {
	cfg := HardwareChick()
	cfg.ThreadsPerGC = 2 // squeeze: ContextsPerNodelet() == 2
	const fan = 32
	runRecorded(t, cfg, nil, spawnTreeDigest, func(s *System) CBody {
		return &ctTreeRoot{arr: s.Mem.AllocStriped(s.Nodelets()), fan: fan}
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

func pingScenario(a, b, rounds int) func(s *System) CBody {
	return func(s *System) CBody {
		return &ctPing{arr: s.Mem.AllocStriped(s.Nodelets()), a: a, b: b, rounds: rounds}
	}
}

// TestContThreadMatchesGoroutineCrossNode drives migrations across node
// cards, exercising the migration engine, fabric link, and inter-node tier.
func TestContThreadMatchesGoroutineCrossNode(t *testing.T) {
	runRecorded(t, HardwareChickNodes(2), nil, crossNodeDigest, pingScenario(0, 12, 40))
}

// TestContThreadMatchesGoroutineUnderFaults covers the migration backoff
// state machine: stall windows force the recorded retry sequence,
// FaultStall events included.
func TestContThreadMatchesGoroutineUnderFaults(t *testing.T) {
	plan := &fault.Plan{
		Stalls: []fault.Stall{{Duration: 40 * sim.Microsecond, Period: 100 * sim.Microsecond}},
	}
	runRecorded(t, HardwareChick(), plan, underFaultsDigest, pingScenario(0, 5, 60))
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
// bound, across node cards, and the memory-side sums must be exact.
func TestContThreadMatchesGoroutineRemoteAdd(t *testing.T) {
	const fan, n = 48, 40
	runRecorded(t, HardwareChickNodes(2), nil, remoteAddDigest, func(s *System) CBody {
		return &ctAdderRoot{acc: s.Mem.AllocStriped(s.Nodelets()), fan: fan, n: n}
	})

	s := NewSystem(HardwareChickNodes(2))
	acc := s.Mem.AllocStriped(s.Nodelets())
	if _, err := s.Run(&ctAdderRoot{acc: acc, fan: fan, n: n}); err != nil {
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
	if _, err := s.Run(&ctTreeRoot{arr: arr, fan: fan}); err != nil {
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

// TestHotPathAllocsFlat holds the machine layer to the hot-path allocation
// contract: a thread whose every iteration migrates to load a word, stores
// to a Local word, and spawns and joins a child on the next nodelet
// allocates nothing per iteration, both detached and with an observer
// sampling gauges every nanosecond. 640 iterations may cost no more
// allocations than 64. The systems are built before counting: NewSystem
// names its resources through fmt, whose pooled buffers the race detector
// drops at random. Not parallel: testing.AllocsPerRun counts every
// goroutine's mallocs.
func TestHotPathAllocsFlat(t *testing.T) {
	for _, traced := range []bool{false, true} {
		allocs := func(iters int) float64 {
			const runs = 3
			systems := make([]*System, runs+1) // AllocsPerRun adds one warm-up call
			for i := range systems {
				s := NewSystem(HardwareChick())
				if traced {
					var events, samples int
					s.Attach(trace.FuncObserver{
						OnEvent:  func(trace.Event) { events++ },
						OnSample: func(trace.Sample) { samples++ },
					})
					s.SampleEvery(1000)
				}
				systems[i] = s
			}
			return testing.AllocsPerRun(runs, func() {
				s := systems[0]
				systems = systems[1:]
				if _, err := s.Run(newHotLoop(s, hotRemoteLoad|hotStore|hotSpawnSync, iters)); err != nil {
					t.Fatal(err)
				}
				if got := s.Counters.TotalMigrations(); got < uint64(iters) {
					t.Fatalf("%d iterations migrated %d times", iters, got)
				}
			})
		}
		if short, long := allocs(64), allocs(640); long > short {
			t.Errorf("traced=%v: the machine hot path allocates per iteration: %v allocations at 64 iterations, %v at 640",
				traced, short, long)
		}
	}
}

// TestRunContFunctionalResults: values stored by threadlets, locally and
// posted to a remote nodelet, land in memory.
func TestRunContFunctionalResults(t *testing.T) {
	s := NewSystem(HardwareChick())
	local, remote := s.Mem.AllocLocal(0, 2), s.Mem.AllocLocal(3, 1)
	if _, err := s.Run(&ctMixed{local: local, remote: remote}); err != nil {
		t.Fatal(err)
	}
	if got := s.Mem.Read(local.At(1)); got != 7 {
		t.Fatalf("local store wrote %d, want 7", got)
	}
	if got := s.Mem.Read(remote.At(0)); got != 9 {
		t.Fatalf("remote store wrote %d, want 9", got)
	}
}

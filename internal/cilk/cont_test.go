package cilk

import (
	"fmt"
	"testing"

	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/trace"
)

// The spawn trees against the event streams of the goroutine trees they
// replaced: every Workers strategy and ParFor shape must reproduce the trace
// event stream, elapsed time, and counters recorded from its goroutine
// twin (golden_test.go). Grouped never had a goroutine form and is pinned by
// a digest of its own.

type streamRecorder struct {
	events []trace.Event
}

func (r *streamRecorder) Event(e trace.Event) { r.events = append(r.events, e) }
func (r *streamRecorder) Sample(trace.Sample) {}

// ctTouchWorker loads the worker's home word (migrating if the strategy
// left it remote), then does a little compute.
type ctTouchWorker struct {
	arr memsys.Striped
	w   int
	pc  int
}

func (b *ctTouchWorker) Step(t *machine.CThread) bool {
	for {
		switch b.pc {
		case 0:
			b.pc++
			if t.CLoad(b.arr.At(b.w % b.arr.Len())) {
				return false
			}
		case 1:
			b.pc++
			if t.CCompute(5) {
				return false
			}
		default:
			return true
		}
	}
}

// ctWorkersRoot drives a Workers tree as the run's root body.
type ctWorkersRoot struct {
	ws   *Workers
	done bool
}

func (b *ctWorkersRoot) Step(t *machine.CThread) bool {
	if !b.done {
		if b.ws.Drive(t) {
			return false
		}
		b.done = true
	}
	return true
}

// ctGroupedRoot drives a Grouped tree as the run's root body.
type ctGroupedRoot struct {
	g    *Grouped
	done bool
}

func (b *ctGroupedRoot) Step(t *machine.CThread) bool {
	if !b.done {
		if b.g.Drive(t) {
			return false
		}
		b.done = true
	}
	return true
}

// runRecorded runs one scenario on a fresh system and fails on any drift
// from the digest recorded from its goroutine twin.
func runRecorded(t *testing.T, label, want string, mk func(s *machine.System) machine.CBody) {
	t.Helper()
	s := machine.NewSystem(machine.HardwareChick())
	rec := &streamRecorder{}
	s.Attach(rec)
	elapsed, err := s.Run(mk(s))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkDigest(t, label, runDigest(elapsed, rec.events, s), want)
}

// touchWorkers is the golden Workers scenario: each worker loads its home
// word of a stripe over the whole machine, then computes.
func touchWorkers(nodelets, workers int, strat Strategy) func(s *machine.System) machine.CBody {
	return func(s *machine.System) machine.CBody {
		arr := s.Mem.AllocStriped(s.Nodelets())
		return &ctWorkersRoot{ws: NewWorkers(nodelets, workers, strat, func(w int) machine.CBody {
			return &ctTouchWorker{arr: arr, w: w}
		})}
	}
}

func TestContWorkersMatchGoroutineAllStrategies(t *testing.T) {
	const workers = 23 // odd and > nodelets: uneven trees, every shape branch
	for _, strat := range Strategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			runRecorded(t, strat.String(), workersDigests[strat], touchWorkers(8, workers, strat))
		})
	}
}

// TestContWorkersShapesGolden pins every strategy where the tree's shape
// turns on the worker and nodelet counts: fewer workers than nodelets, one
// per nodelet, one past it, and many, on all 8 nodelets and on 3 of them.
func TestContWorkersShapesGolden(t *testing.T) {
	for _, tc := range workersShapes {
		for _, strat := range Strategies {
			label := fmt.Sprintf("%v/nodelets=%d/W=%d", strat, tc.nodelets, tc.workers)
			runRecorded(t, label, workersShapeDigests[label], touchWorkers(tc.nodelets, tc.workers, strat))
		}
	}
}

// groupedGoldenDigest is the SHA-256 of the uneven Grouped scenario's trace
// event stream, elapsed time and per-nodelet counters, recorded from the
// goroutine spawn tree Grouped replaced (the two were checked equal first).
const groupedGoldenDigest = "5ec78c51c8dbc9c76e3707fc7743e1d0731a2fc2ead2bd520fa901483c99a5a2"

func TestContGroupedGolden(t *testing.T) {
	// Uneven groups, some empty, out-of-order ids within a group.
	groups := make([][]int, 8)
	groups[1] = []int{3, 0, 5}
	groups[4] = []int{1}
	groups[6] = []int{2, 4, 7, 6}
	s := machine.NewSystem(machine.HardwareChick())
	rec := &streamRecorder{}
	s.Attach(rec)
	arr := s.Mem.AllocStriped(s.Nodelets())
	g := NewGrouped(groups, func(w int) machine.CBody {
		return &ctTouchWorker{arr: arr, w: w}
	})
	elapsed, err := s.Run(&ctGroupedRoot{g: g})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "grouped", runDigest(elapsed, rec.events, s), groupedGoldenDigest)
}

// TestContGroupedRootGroupGolden pins a Grouped tree whose first group is
// the root's own nodelet, with an empty group between populated ones and
// one-id groups at both ends of the populated list.
func TestContGroupedRootGroupGolden(t *testing.T) {
	groups := make([][]int, 8)
	groups[0] = []int{1, 0}
	groups[2] = []int{2}
	groups[3] = []int{3, 4, 5}
	groups[5] = []int{8, 6, 7}
	groups[7] = []int{9}
	runRecorded(t, "grouped-root", groupedRootGoldenDigest, func(s *machine.System) machine.CBody {
		arr := s.Mem.AllocStriped(s.Nodelets())
		return &ctGroupedRoot{g: NewGrouped(groups, func(w int) machine.CBody {
			return &ctTouchWorker{arr: arr, w: w}
		})}
	})
}

func TestContWorkersZeroAndNegative(t *testing.T) {
	for _, workers := range []int{0, -3} {
		s := machine.NewSystem(machine.HardwareChick())
		ws := NewWorkers(s.Nodelets(), workers, RecursiveRemoteSpawn, func(int) machine.CBody {
			t.Fatal("worker built for an empty tree")
			return nil
		})
		if _, err := s.Run(&ctWorkersRoot{ws: ws}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if s.Counters.ThreadsSpawned != 1 { // just the root
			t.Fatalf("workers=%d spawned %d threads", workers, s.Counters.ThreadsSpawned)
		}
	}
}

// ctRangeLeaf is a ParallelFor leaf: load each iteration's word (migrating
// across the stripe), then a little compute.
type ctRangeLeaf struct {
	arr    memsys.Striped
	i, hi  int
	loaded bool
}

func (b *ctRangeLeaf) Step(t *machine.CThread) bool {
	for b.i < b.hi {
		if !b.loaded {
			b.loaded = true
			if t.CLoad(b.arr.At(b.i)) {
				return false
			}
		}
		b.loaded = false
		b.i++
		if t.CCompute(3) {
			return false
		}
	}
	return true
}

// ctParForRoot drives a ParFor as the run's root body, then stores one word
// so the caller's continuation past the loop is on the trace too.
type ctParForRoot struct {
	f      *ParFor
	out    memsys.Addr
	looped bool
	stored bool
}

func (b *ctParForRoot) Step(t *machine.CThread) bool {
	if !b.looped {
		if b.f.Drive(t) {
			return false
		}
		b.looped = true
	}
	if !b.stored {
		b.stored = true
		if t.CStore(b.out, 1) {
			return false
		}
	}
	return true
}

func TestContParallelForMatchesGoroutine(t *testing.T) {
	for _, tc := range []struct{ n, grain int }{{37, 1}, {37, 4}, {37, 36}, {37, 37}, {37, 100}, {64, 0}, {1, 5}} {
		tc := tc
		label := fmt.Sprintf("n=%d/grain=%d", tc.n, tc.grain)
		runRecorded(t, label, parForDigests[label], func(s *machine.System) machine.CBody {
			arr := s.Mem.AllocStriped(tc.n)
			out := s.Mem.AllocLocal(0, 1)
			f := NewParallelFor(tc.n, tc.grain, func(lo, hi int) machine.CBody {
				return &ctRangeLeaf{arr: arr, i: lo, hi: hi}
			})
			return &ctParForRoot{f: f, out: out.At(0)}
		})
	}
}

func TestContParallelForEmptyRange(t *testing.T) {
	for _, n := range []int{0, -2} {
		s := machine.NewSystem(machine.HardwareChick())
		out := s.Mem.AllocLocal(0, 1)
		f := NewParallelFor(n, 4, func(int, int) machine.CBody {
			t.Fatal("leaf built for an empty range")
			return nil
		})
		if _, err := s.Run(&ctParForRoot{f: f, out: out.At(0)}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if s.Counters.ThreadsSpawned != 1 {
			t.Fatalf("n=%d spawned %d threads", n, s.Counters.ThreadsSpawned)
		}
	}
}

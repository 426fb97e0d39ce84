package cilk

import (
	"fmt"
	"testing"

	"emuchick/internal/machine"
	"emuchick/internal/memsys"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// Cross-engine equivalence for the spawn trees: every strategy must produce
// the identical trace event stream, elapsed time, and counters whether the
// tree is spawned by goroutine threads or continuation threadlets.

type streamRecorder struct {
	events []trace.Event
}

func (r *streamRecorder) Event(e trace.Event) { r.events = append(r.events, e) }
func (r *streamRecorder) Sample(trace.Sample) {}

// ctTouchWorker is the continuation twin of the goroutine test worker: load
// the worker's home word (migrating if the strategy left it remote), then a
// little compute.
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

// runEnginePair runs the goroutine and continuation variants of one scenario
// on fresh systems and fails on any trace/time/counter divergence.
func runEnginePair(t *testing.T, label string,
	mkGo func(s *machine.System) func(*machine.Thread),
	mkCont func(s *machine.System) machine.CBody) {
	t.Helper()
	run := func(cont bool) (sim.Time, []trace.Event, []machine.NodeletCounters) {
		s := machine.NewSystem(machine.HardwareChick())
		rec := &streamRecorder{}
		s.Attach(rec)
		var elapsed sim.Time
		var err error
		if cont {
			elapsed, err = s.RunCont(mkCont(s))
		} else {
			elapsed, err = s.Run(mkGo(s))
		}
		if err != nil {
			t.Fatalf("%s (cont=%v): %v", label, cont, err)
		}
		return elapsed, rec.events, s.Counters.Snapshot()
	}
	ge, gev, gc := run(false)
	ce, cev, cc := run(true)
	if ge != ce {
		t.Errorf("%s: elapsed diverged: goroutine %v, continuation %v", label, ge, ce)
	}
	if len(gev) != len(cev) {
		t.Fatalf("%s: event count diverged: goroutine %d, continuation %d", label, len(gev), len(cev))
	}
	for i := range gev {
		if gev[i] != cev[i] {
			t.Fatalf("%s: event %d diverged:\n  goroutine    %+v\n  continuation %+v", label, i, gev[i], cev[i])
		}
	}
	for i := range gc {
		if gc[i] != cc[i] {
			t.Errorf("%s: counters diverged at nodelet %d:\n  goroutine    %+v\n  continuation %+v", label, i, gc[i], cc[i])
		}
	}
}

func TestContWorkersMatchGoroutineAllStrategies(t *testing.T) {
	const workers = 23 // odd and > nodelets: uneven trees, every shape branch
	for _, strat := range Strategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			runEnginePair(t, strat.String(),
				func(s *machine.System) func(*machine.Thread) {
					arr := s.Mem.AllocStriped(s.Nodelets())
					return func(th *machine.Thread) {
						SpawnWorkers(th, th.System().Nodelets(), workers, strat, func(c *machine.Thread, w int) {
							c.Load(arr.At(w % arr.Len()))
							c.Compute(5)
						})
					}
				},
				func(s *machine.System) machine.CBody {
					arr := s.Mem.AllocStriped(s.Nodelets())
					ws := NewWorkers(s.Nodelets(), workers, strat, func(w int) machine.CBody {
						return &ctTouchWorker{arr: arr, w: w}
					})
					return &ctWorkersRoot{ws: ws}
				})
		})
	}
}

func TestContGroupedMatchesGoroutine(t *testing.T) {
	// Uneven groups, some empty, out-of-order ids within a group.
	mkGroups := func(nodelets int) [][]int {
		groups := make([][]int, nodelets)
		groups[1] = []int{3, 0, 5}
		groups[4] = []int{1}
		groups[6] = []int{2, 4, 7, 6}
		return groups
	}
	runEnginePair(t, "grouped",
		func(s *machine.System) func(*machine.Thread) {
			arr := s.Mem.AllocStriped(s.Nodelets())
			groups := mkGroups(s.Nodelets())
			return func(th *machine.Thread) {
				SpawnGrouped(th, groups, func(c *machine.Thread, w int) {
					c.Load(arr.At(w % arr.Len()))
					c.Compute(5)
				})
			}
		},
		func(s *machine.System) machine.CBody {
			arr := s.Mem.AllocStriped(s.Nodelets())
			groups := mkGroups(s.Nodelets())
			g := NewGrouped(groups, func(w int) machine.CBody {
				return &ctTouchWorker{arr: arr, w: w}
			})
			return &ctGroupedRoot{g: g}
		})
}

func TestContWorkersZeroAndNegative(t *testing.T) {
	for _, workers := range []int{0, -3} {
		s := machine.NewSystem(machine.HardwareChick())
		ws := NewWorkers(s.Nodelets(), workers, RecursiveRemoteSpawn, func(int) machine.CBody {
			t.Fatal("worker built for an empty tree")
			return nil
		})
		if _, err := s.RunCont(&ctWorkersRoot{ws: ws}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if s.Counters.ThreadsSpawned != 1 { // just the root
			t.Fatalf("workers=%d spawned %d threads", workers, s.Counters.ThreadsSpawned)
		}
	}
}

// ctRangeLeaf is the continuation twin of a ParallelFor body: load each
// iteration's word (migrating across the stripe), then a little compute.
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
		runEnginePair(t, label,
			func(s *machine.System) func(*machine.Thread) {
				arr := s.Mem.AllocStriped(tc.n)
				out := s.Mem.AllocLocal(0, 1)
				return func(th *machine.Thread) {
					ParallelFor(th, tc.n, tc.grain, func(c *machine.Thread, lo, hi int) {
						for i := lo; i < hi; i++ {
							c.Load(arr.At(i))
							c.Compute(3)
						}
					})
					th.Store(out.At(0), 1)
				}
			},
			func(s *machine.System) machine.CBody {
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
		if _, err := s.RunCont(&ctParForRoot{f: f, out: out.At(0)}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if s.Counters.ThreadsSpawned != 1 {
			t.Fatalf("n=%d spawned %d threads", n, s.Counters.ThreadsSpawned)
		}
	}
}

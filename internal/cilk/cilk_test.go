package cilk

import (
	"testing"
	"testing/quick"

	"emuchick/internal/machine"
	"emuchick/internal/memsys"
)

func TestStrategyNames(t *testing.T) {
	want := map[Strategy]string{
		SerialSpawn:          "serial_spawn",
		RecursiveSpawn:       "recursive_spawn",
		SerialRemoteSpawn:    "serial_remote_spawn",
		RecursiveRemoteSpawn: "recursive_remote_spawn",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), name)
		}
		parsed, err := ParseStrategy(name)
		if err != nil || parsed != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, parsed, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted a bogus name")
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy has empty String")
	}
}

func TestRemoteProperty(t *testing.T) {
	if SerialSpawn.Remote() || RecursiveSpawn.Remote() {
		t.Error("local strategies report Remote")
	}
	if !SerialRemoteSpawn.Remote() || !RecursiveRemoteSpawn.Remote() {
		t.Error("remote strategies do not report Remote")
	}
}

// runWorkers drives a Workers tree under the given strategy and returns the
// system plus a per-worker record of (ran, nodelet at start).
func runWorkers(t *testing.T, workers int, strat Strategy) (*machine.System, []int) {
	t.Helper()
	s := machine.NewSystem(machine.HardwareChick())
	startNodelet := make([]int, workers)
	for i := range startNodelet {
		startNodelet[i] = -1
	}
	ws := NewWorkers(8, workers, strat, func(id int) machine.CBody {
		return &script{func(w *machine.CThread) bool {
			if startNodelet[id] != -1 {
				t.Errorf("worker %d ran twice", id)
			}
			startNodelet[id] = w.Nodelet()
			return w.CCompute(100)
		}}
	})
	_, err := s.Run(&drives{ws})
	if err != nil {
		t.Fatal(err)
	}
	return s, startNodelet
}

func TestSpawnWorkersRunsEveryWorkerOnce(t *testing.T) {
	for _, strat := range Strategies {
		for _, workers := range []int{1, 3, 8, 17, 64} {
			_, starts := runWorkers(t, workers, strat)
			for id, nl := range starts {
				if nl == -1 {
					t.Fatalf("%v: worker %d of %d never ran", strat, id, workers)
				}
			}
		}
	}
}

func TestRemoteStrategiesPlaceWorkersOnTheirNodelets(t *testing.T) {
	for _, strat := range []Strategy{SerialRemoteSpawn, RecursiveRemoteSpawn} {
		_, starts := runWorkers(t, 24, strat)
		for id, nl := range starts {
			if nl != id%8 {
				t.Errorf("%v: worker %d started on nodelet %d, want %d", strat, id, nl, id%8)
			}
		}
	}
}

func TestLocalStrategiesStartOnRootNodelet(t *testing.T) {
	for _, strat := range []Strategy{SerialSpawn, RecursiveSpawn} {
		_, starts := runWorkers(t, 24, strat)
		for id, nl := range starts {
			if nl != 0 {
				t.Errorf("%v: worker %d started on nodelet %d, want 0", strat, id, nl)
			}
		}
	}
}

func TestRemoteStrategiesAvoidMigrations(t *testing.T) {
	// Remote spawning places threads at their data, so a worker touching
	// only nodelet-local memory never migrates.
	s := machine.NewSystem(machine.HardwareChick())
	arr := s.Mem.AllocStriped(64)
	_, err := s.Run(&drives{NewWorkers(8, 16, SerialRemoteSpawn, stripeLoads(arr))})
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Counters.TotalMigrations(); m != 0 {
		t.Fatalf("remote-spawn workers migrated %d times", m)
	}
}

func TestSerialSpawnWorkersMigrateToData(t *testing.T) {
	s := machine.NewSystem(machine.HardwareChick())
	arr := s.Mem.AllocStriped(64)
	_, err := s.Run(&drives{NewWorkers(8, 16, SerialSpawn, stripeLoads(arr))})
	if err != nil {
		t.Fatal(err)
	}
	// Workers for nodelets 1..7 (14 of 16 workers) must migrate at least once.
	if m := s.Counters.TotalMigrations(); m < 14 {
		t.Fatalf("expected >= 14 migrations, got %d", m)
	}
}

func TestSpawnWorkersZeroAndBounds(t *testing.T) {
	s := machine.NewSystem(machine.HardwareChick())
	ws := NewWorkers(8, 0, SerialSpawn, func(int) machine.CBody {
		t.Error("worker built for workers=0")
		return nil
	})
	if _, err := s.Run(&drives{ws}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("nodelets out of range did not panic")
		}
	}()
	s = machine.NewSystem(machine.HardwareChick())
	s.Run(&drives{NewWorkers(99, 1, SerialSpawn, func(int) machine.CBody { return &script{} })})
}

// stripeLoads builds worker id's body: load every word of arr homed on
// nodelet id mod 8.
func stripeLoads(arr memsys.Striped) func(id int) machine.CBody {
	return func(id int) machine.CBody {
		var sc script
		for i := id % 8; i < arr.Len(); i += 8 {
			sc = append(sc, func(w *machine.CThread) bool { return w.CLoad(arr.At(i)) })
		}
		return &sc
	}
}

// rangeHits is a ParallelFor leaf that counts every iteration it runs.
func rangeHits(t *testing.T, hits []int, grain int) func(lo, hi int) machine.CBody {
	return func(lo, hi int) machine.CBody {
		return &script{func(*machine.CThread) bool {
			if hi-lo > grain {
				t.Errorf("chunk [%d,%d) exceeds grain %d", lo, hi, grain)
			}
			for i := lo; i < hi; i++ {
				hits[i]++
			}
			return false
		}}
	}
}

// startRecorder is a Grouped worker that reports the nodelet it starts on.
type startRecorder struct {
	id     int
	record func(id, nodelet int)
}

func (b *startRecorder) Step(t *machine.CThread) bool {
	b.record(b.id, t.Nodelet())
	return true
}

// runGrouped drives a Grouped tree over groups as a run's root body, calling
// record(id, nodelet) as each worker takes its first step.
func runGrouped(groups [][]int, record func(id, nodelet int)) error {
	s := machine.NewSystem(machine.HardwareChick())
	g := NewGrouped(groups, func(id int) machine.CBody {
		return &startRecorder{id: id, record: record}
	})
	_, err := s.Run(&ctGroupedRoot{g: g})
	return err
}

func TestSpawnGroupedPlacesWorkersAndRunsOnce(t *testing.T) {
	// Workers 0..9 spread unevenly: nodelet 1 gets {0,1,2}, nodelet 4
	// gets {3}, nodelet 7 gets {4..9}; nodelets 0,2,3,5,6 get none.
	groups := make([][]int, 8)
	groups[1] = []int{0, 1, 2}
	groups[4] = []int{3}
	groups[7] = []int{4, 5, 6, 7, 8, 9}
	startNodelet := make([]int, 10)
	for i := range startNodelet {
		startNodelet[i] = -1
	}
	err := runGrouped(groups, func(id, nl int) {
		if startNodelet[id] != -1 {
			t.Errorf("worker %d ran twice", id)
		}
		startNodelet[id] = nl
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 1, 4, 7, 7, 7, 7, 7, 7}
	for id, nl := range startNodelet {
		if nl != want[id] {
			t.Fatalf("worker %d started on nodelet %d, want %d", id, nl, want[id])
		}
	}
}

func TestSpawnGroupedEmpty(t *testing.T) {
	err := runGrouped(make([][]int, 8), func(int, int) {
		t.Error("worker ran for empty groups")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Grouped runs every id exactly once at its group's nodelet for
// any random grouping.
func TestSpawnGroupedCoverageProperty(t *testing.T) {
	f := func(assign []uint8) bool {
		if len(assign) > 40 {
			assign = assign[:40]
		}
		groups := make([][]int, 8)
		want := make([]int, len(assign))
		for id, a := range assign {
			nl := int(a % 8)
			groups[nl] = append(groups[nl], id)
			want[id] = nl
		}
		got := make([]int, len(assign))
		for i := range got {
			got[i] = -1
		}
		err := runGrouped(groups, func(id, nl int) {
			if got[id] != -1 {
				got[id] = -2 // duplicate marker
				return
			}
			got[id] = nl
		})
		if err != nil {
			return false
		}
		for id := range want {
			if got[id] != want[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelForCoversRangeExactly(t *testing.T) {
	s := machine.NewSystem(machine.HardwareChick())
	const n = 100
	hits := make([]int, n)
	_, err := s.Run(&drives{NewParallelFor(n, 7, rangeHits(t, hits, 7))})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times", i, h)
		}
	}
}

func TestParallelForEdgeCases(t *testing.T) {
	s := machine.NewSystem(machine.HardwareChick())
	empty := NewParallelFor(0, 4, func(int, int) machine.CBody {
		t.Error("body built for n=0")
		return nil
	})
	hits := make([]int, 1)
	one := NewParallelFor(1, 0, rangeHits(t, hits, 1)) // grain <= 0 is clamped to 1
	if _, err := s.Run(&drives{empty, one}); err != nil {
		t.Fatal(err)
	}
	if hits[0] != 1 {
		t.Error("n=1 body never ran")
	}
}

// wantSpawns derives from the input alone how many local and remote spawns
// a Workers tree issues, not counting the root's own: W worker spawns in
// every strategy, plus one coordinator per split of a binary tree over a
// nodelet's ids (k ids split k-1 times) and one per nodelet placement
// (n = min(nodelets, W), of which only the root's own nodelet is local).
func wantSpawns(strat Strategy, nodelets, workers int) (local, remote uint64) {
	w, n := uint64(workers), uint64(min(nodelets, workers))
	switch strat {
	case SerialSpawn:
		return w, 0
	case RecursiveSpawn:
		return 2*w - 1, 0
	case SerialRemoteSpawn:
		return w + 1, n - 1
	default: // RecursiveRemoteSpawn
		return 2 * w, n - 1
	}
}

// Property: for every (nodelets, workers, strategy) with 1-8 nodelets and
// 1-70 workers, every worker id in [0, workers) runs exactly once, and the
// counters read exactly the spawns wantSpawns derives.
func TestSpawnWorkersCoverageProperty(t *testing.T) {
	for nodelets := 1; nodelets <= 8; nodelets++ {
		for workers := 1; workers <= 70; workers++ {
			for _, strat := range Strategies {
				s := machine.NewSystem(machine.HardwareChick())
				count := make([]int, workers)
				_, err := s.Run(&drives{NewWorkers(nodelets, workers, strat, func(id int) machine.CBody {
					return &script{func(*machine.CThread) bool { count[id]++; return false }}
				})})
				if err != nil {
					t.Fatal(err)
				}
				for id, c := range count {
					if c != 1 {
						t.Fatalf("%v nodelets=%d W=%d: worker %d ran %d times", strat, nodelets, workers, id, c)
					}
				}
				var local, remote uint64
				for _, nc := range s.Counters.Snapshot() {
					local += nc.LocalSpawns
					remote += nc.RemoteSpawns
				}
				local-- // the root's own spawn
				wantLocal, wantRemote := wantSpawns(strat, nodelets, workers)
				if local != wantLocal || remote != wantRemote {
					t.Fatalf("%v nodelets=%d W=%d: %d local and %d remote spawns, want %d and %d",
						strat, nodelets, workers, local, remote, wantLocal, wantRemote)
				}
			}
		}
	}
}

// Property: NewParallelFor partitions [0,n) into disjoint covering chunks for
// any n and grain.
func TestParallelForPartitionProperty(t *testing.T) {
	f := func(nRaw, gRaw uint8) bool {
		n := int(nRaw % 200)
		grain := int(gRaw % 32)
		s := machine.NewSystem(machine.HardwareChick())
		hits := make([]int, n)
		_, err := s.Run(&drives{NewParallelFor(n, grain, rangeHits(t, hits, max(grain, 1)))})
		if err != nil {
			return false
		}
		for _, h := range hits {
			if h != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

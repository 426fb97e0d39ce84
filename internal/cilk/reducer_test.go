package cilk

import (
	"testing"

	"emuchick/internal/machine"
	"emuchick/internal/sim"
)

// ones is n reducer adds of 1.
func ones(n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = 1
	}
	return vs
}

func TestSumReducerCorrectness(t *testing.T) {
	sys := machine.NewSystem(machine.HardwareChick())
	red := NewSumReducer(sys)
	ws := NewWorkers(8, 32, SerialRemoteSpawn, func(id int) machine.CBody {
		return adds(red, ones(id+1)...)
	})
	gather := red.Reduce()
	if _, err := sys.Run(&drives{ws, gather}); err != nil {
		t.Fatal(err)
	}
	want := uint64(32 * 33 / 2) // sum of 1..32
	if got := gather.Total(); got != want {
		t.Fatalf("Reduce = %d, want %d", got, want)
	}
	if v := red.Value(sys); v != want {
		t.Fatalf("Value = %d, want %d", v, want)
	}
}

func TestSumReducerNeverMigrates(t *testing.T) {
	sys := machine.NewSystem(machine.HardwareChick())
	red := NewSumReducer(sys)
	ws := NewWorkers(8, 16, SerialRemoteSpawn, func(int) machine.CBody {
		return adds(red, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	})
	if _, err := sys.Run(&drives{ws, red.Reduce()}); err != nil {
		t.Fatal(err)
	}
	if m := sys.Counters.TotalMigrations(); m != 0 {
		t.Fatalf("reducer caused %d migrations", m)
	}
}

func TestSumReducerBeatsSharedCell(t *testing.T) {
	// Accumulating through per-nodelet cells spreads the atomic traffic
	// over all channels; a single shared cell serializes on one. The
	// reducer must be measurably faster under load.
	const workers, nadds = 64, 64
	elapsedReducer := func() sim.Time {
		sys := machine.NewSystem(machine.HardwareChick())
		red := NewSumReducer(sys)
		ws := NewWorkers(8, workers, SerialRemoteSpawn, func(int) machine.CBody {
			return adds(red, ones(nadds)...)
		})
		elapsed, err := sys.Run(&drives{ws, red.Reduce()})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}()
	elapsedShared := func() sim.Time {
		sys := machine.NewSystem(machine.HardwareChick())
		cell := sys.Mem.AllocLocal(0, 1)
		ws := NewWorkers(8, workers, SerialRemoteSpawn, func(int) machine.CBody {
			sc := make(script, nadds)
			for k := range sc {
				sc[k] = func(w *machine.CThread) bool { return w.CRemoteAdd(cell.At(0), 1) }
			}
			return &sc
		})
		elapsed, err := sys.Run(&drives{ws})
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Mem.Read(cell.At(0)); got != workers*nadds {
			t.Fatalf("shared cell = %d", got)
		}
		return elapsed
	}()
	if elapsedReducer >= elapsedShared {
		t.Fatalf("reducer (%v) not faster than shared cell (%v)", elapsedReducer, elapsedShared)
	}
}

package machine

import (
	"fmt"
	"testing"
	"testing/quick"

	"emuchick/internal/workload"
)

// randomProgram drives a system with a pseudo-random mix of every threadlet
// operation and returns it for invariant checking. It fails the run unless
// the engine ends idle: no live procs, no pending events, and no threadlet
// still queued for a context slot.
func randomProgram(t *testing.T, seed uint64, ops int) (*System, error) {
	t.Helper()
	sys := NewSystem(HardwareChick())
	arr := sys.Mem.AllocStriped(256)
	acc := sys.Mem.AllocLocal(3, 4)
	rng := workload.NewRNG(seed)
	// Pre-draw the op stream so the simulated schedule cannot influence
	// the workload (determinism of the generator itself).
	kinds := make([]int, ops)
	args := make([]int, ops)
	for i := range kinds {
		kinds[i] = rng.Intn(6)
		args[i] = rng.Intn(256)
	}
	var root script
	for w := 0; w < 8; w++ {
		var body script
		for i := w; i < ops; i += 8 {
			a := args[i]
			var op func(th *CThread) bool
			switch kinds[i] {
			case 0:
				op = func(th *CThread) bool { return th.CLoad(arr.At(a)) }
			case 1:
				op = func(th *CThread) bool { return th.CStore(arr.At(a), uint64(i)) }
			case 2:
				op = func(th *CThread) bool { return th.CRemoteAdd(acc.At(a%4), 1) }
			case 3:
				op = func(th *CThread) bool { return th.CMigrateTo(a % 8) }
			case 4:
				op = compute(int64(a))
			case 5:
				op = func(th *CThread) bool {
					return th.CSpawn(&script{func(c *CThread) bool { return c.CLoad(arr.At(a)) }})
				}
			}
			body = append(body, op)
		}
		body = append(body, (*CThread).CSync)
		root = append(root, func(th *CThread) bool { return th.CSpawnAt(w, &body) })
	}
	if _, err := sys.Run(&root); err != nil {
		return sys, err
	}
	if n := sys.Eng.LiveProcs(); n != 0 {
		return sys, fmt.Errorf("%d procs live after the run", n)
	}
	if n := sys.Eng.Pending(); n != 0 {
		return sys, fmt.Errorf("%d events pending after the run", n)
	}
	for nl, n := range sys.nodelets {
		if w := n.slots.Waiting(); w != 0 {
			return sys, fmt.Errorf("nodelet %d has %d threadlets queued for a slot after the run", nl, w)
		}
	}
	return sys, nil
}

// Property: for any op mix, the machine's conservation laws hold —
// migrations out equal migrations in, every spawned thread completes, all
// context slots drain, the per-nodelet spawn counts account for every
// thread, and the engine ends idle (see randomProgram).
func TestMachineConservationProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		ops := int(opsRaw%100) + 20
		sys, err := randomProgram(t, seed, ops)
		if err != nil {
			t.Log(err)
			return false
		}
		c := sys.Counters
		var in, out uint64
		for nl := 0; nl < c.Nodelets(); nl++ {
			in += c.Nodelet(nl).MigrationsIn
			out += c.Nodelet(nl).MigrationsOut
		}
		if in != out {
			return false
		}
		if c.ThreadsSpawned != c.ThreadsCompleted || c.LiveThreads != 0 {
			return false
		}
		if c.TotalSpawns() != c.ThreadsSpawned {
			return false
		}
		for nl := 0; nl < sys.Nodelets(); nl++ {
			if sys.nodelets[nl].slots.InUse() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same seed produces byte-identical counters and end time.
func TestMachineDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a, errA := randomProgram(t, seed, 80)
		b, errB := randomProgram(t, seed, 80)
		if errA != nil || errB != nil {
			t.Log(errA, errB)
			return false
		}
		if a.Eng.Now() != b.Eng.Now() || a.Eng.Fired() != b.Eng.Fired() {
			return false
		}
		for nl := 0; nl < a.Counters.Nodelets(); nl++ {
			if a.Counters.Nodelet(nl) != b.Counters.Nodelet(nl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

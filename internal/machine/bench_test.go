package machine

import (
	"testing"

	"emuchick/internal/memsys"
)

// The machine layer's benchmark and allocation test share one driver,
// hotLoop: a thread body whose iterations issue the CThread operations its
// flags select. Each benchmark reports events/op from Eng.Fired(), so a
// change in an operation's cost splits into "more events" (the counter
// moved) or "slower events" (only ns/op moved).

// hotOps selects the operations of one hotLoop iteration, issued in the
// order the flags are declared.
type hotOps uint8

const (
	hotLocalLoad  hotOps = 1 << iota // CLoad of a word on the current nodelet
	hotRemoteLoad                    // CLoad of a word on the next nodelet: one migration
	hotStore                         // CStore to a Local word on the current nodelet
	hotSpawnSync                     // CSpawnAt an empty child on the next nodelet, then CSync
)

// hotLoop runs n iterations of ops. src holds one word per nodelet (word j
// on nodelet j); words holds one Local word per nodelet.
type hotLoop struct {
	ops   hotOps
	src   memsys.Striped
	words []memsys.Local
	n, i  int
	pc    int
}

func newHotLoop(s *System, ops hotOps, n int) *hotLoop {
	b := &hotLoop{ops: ops, src: s.Mem.AllocStriped(s.Nodelets()), n: n}
	for nl := range s.Nodelets() {
		b.words = append(b.words, s.Mem.AllocLocal(nl, 1))
	}
	return b
}

func (b *hotLoop) Step(t *CThread) bool {
	for {
		switch b.pc {
		case 0:
			if b.i == b.n {
				return true
			}
			b.i++
			b.pc = 1
			if b.ops&hotLocalLoad != 0 && t.CLoad(b.src.At(t.Nodelet())) {
				return false
			}
		case 1:
			b.pc = 2
			if b.ops&hotRemoteLoad != 0 && t.CLoad(b.src.At(b.next(t))) {
				return false
			}
		case 2:
			b.pc = 3
			if b.ops&hotStore != 0 && t.CStore(b.words[t.Nodelet()].At(0), t.Value()) {
				return false
			}
		case 3:
			b.pc = 4
			if b.ops&hotSpawnSync != 0 && t.CSpawnAt(b.next(t), hotNop{}) {
				return false
			}
		case 4:
			b.pc = 0
			if b.ops&hotSpawnSync != 0 && t.CSync() {
				return false
			}
		}
	}
}

// next is the nodelet after t's.
func (b *hotLoop) next(t *CThread) int { return (t.Nodelet() + 1) % len(b.words) }

// hotNop is an empty child body.
type hotNop struct{}

func (hotNop) Step(*CThread) bool { return true }

// BenchmarkMachineOps runs b.N iterations of one operation on the hardware
// Chick, in one run. Fix b.N (-benchtime Nx) to compare events/op across
// builds; the run's fixed start and end events weigh less as b.N grows.
func BenchmarkMachineOps(b *testing.B) {
	for _, bc := range []struct {
		name string
		ops  hotOps
	}{
		{"LocalLoad", hotLocalLoad},
		{"RemoteLoad", hotRemoteLoad},
		{"SpawnSync", hotSpawnSync},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewSystem(HardwareChick())
			body := newHotLoop(s, bc.ops, b.N)
			b.ResetTimer()
			if _, err := s.Run(body); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(s.Eng.Fired())/float64(b.N), "events/op")
		})
	}
}

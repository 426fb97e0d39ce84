package cilk

import (
	"fmt"
	"testing"

	"emuchick/internal/machine"
)

// Per-layer benchmarks of the spawn trees on HardwareChick: each op is one
// run of a tree whose bodies do nothing, on a System reused across ops so
// the thread pool is warm. Each reports events/op from the engine's Fired
// count, which is exact: a change that keeps the trees' event streams keeps
// it, and only ns/op and allocs/op may move.

// nopBody is a worker that finishes on its first step.
type nopBody struct{}

func (nopBody) Step(*machine.CThread) bool { return true }

func nop(int) machine.CBody { return nopBody{} }

func nopLeaf(int, int) machine.CBody { return nopBody{} }

// benchTree runs the tree that mk builds once per op on one System.
func benchTree(b *testing.B, mk func() Driver) {
	s := machine.NewSystem(machine.HardwareChick())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(&drives{mk()}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Eng.Fired())/float64(b.N), "events/op")
}

func BenchmarkWorkers(b *testing.B) {
	for _, strat := range Strategies {
		for _, w := range []int{64, 1024} {
			b.Run(fmt.Sprintf("%v/W=%d", strat, w), func(b *testing.B) {
				benchTree(b, func() Driver { return NewWorkers(8, w, strat, nop) })
			})
		}
	}
}

// BenchmarkGrouped places 1024 workers on the 8 nodelets in uneven groups,
// with nodelets 0 and 5 empty.
func BenchmarkGrouped(b *testing.B) {
	groups := make([][]int, 8)
	for id := 0; id < 1024; id++ {
		nl := []int{1, 2, 3, 4, 6, 7}[id*id%6]
		groups[nl] = append(groups[nl], id)
	}
	benchTree(b, func() Driver { return NewGrouped(groups, nop) })
}

func BenchmarkParFor(b *testing.B) {
	benchTree(b, func() Driver { return NewParallelFor(4096, 16, nopLeaf) })
}

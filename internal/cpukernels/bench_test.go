package cpukernels

import (
	"fmt"
	"testing"

	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// BenchmarkPointerChaseXeon is one fig7 cell at full scale: 2^21 elements
// (a 32 MiB list, past the 20 MiB L3), full block shuffle, 8 threads, at
// block 1 (a random walk), block 512 (8 KiB runs, one DRAM page) and block
// 4096 (64 KiB runs), the three xeon-cache cells. Its events/op is exact
// and must not move on perf-only work; with -benchmem, B/op and allocs/op
// count the list's construction as well as the walk.
func BenchmarkPointerChaseXeon(b *testing.B) {
	for _, block := range []int{1, 512, 4096} {
		b.Run(fmt.Sprintf("block=%d", block), func(b *testing.B) {
			last := recordSystems(b)
			cfg := ChaseConfig{Elements: 1 << 21, BlockSize: block, Mode: workload.FullBlockShuffle, Seed: 1, Threads: 8}
			for i := 0; i < b.N; i++ {
				if _, err := PointerChase(xeon.SandyBridgeXeon(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last().Eng.Fired()), "events/op")
		})
	}
}

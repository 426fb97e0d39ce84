package emuchick

// One testing.B benchmark per paper artifact. Each runs a representative
// configuration of the corresponding figure or table and reports the
// figure's metric (simulated bandwidth or migration rate) via
// b.ReportMetric, so `go test -bench . -benchmem` regenerates the headline
// number of every artifact; `cmd/emubench` regenerates the full sweeps.

import (
	"runtime"
	"testing"

	"emuchick/internal/cpukernels"
	"emuchick/internal/experiments"
	"emuchick/internal/sim"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// reportEmu runs an Emu kernel b.N times and reports its simulated
// bandwidth in MB/s.
func reportEmu(b *testing.B, run func() (Result, error)) {
	b.Helper()
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MBps(), "simMB/s")
}

// kernel returns a reportEmu body that runs a registered bandwidth kernel.
func kernel(cfg Config, name string, p KernelParams, opts ...RunOption) func() (Result, error) {
	return func() (Result, error) {
		m, err := Run(cfg, name, p, opts...)
		return m.Result(), err
	}
}

// BenchmarkFig4StreamSingleNodelet is the plateau point of Fig. 4: STREAM
// on one nodelet with 64 threads.
func BenchmarkFig4StreamSingleNodelet(b *testing.B) {
	reportEmu(b, kernel(HardwareChick(), "stream", KernelParams{
		Elems: 1024, Nodelets: 1, Threads: 64, Strategy: SerialSpawn.String(),
	}))
}

// BenchmarkFig5StreamEightNodelets is Fig. 5's peak: 512 threads with a
// recursive remote spawn tree across 8 nodelets (~1.2 GB/s on hardware).
func BenchmarkFig5StreamEightNodelets(b *testing.B) {
	reportEmu(b, kernel(HardwareChick(), "stream", KernelParams{
		Elems: 1024, Nodelets: 8, Threads: 512, Strategy: RecursiveRemoteSpawn.String(),
	}))
}

// BenchmarkStreamAnchorXeon is the section IV-A anchor: Sandy Bridge
// STREAM near its nominal 51.2 GB/s.
func BenchmarkStreamAnchorXeon(b *testing.B) {
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := cpukernels.StreamAdd(xeon.SandyBridgeXeon(), cpukernels.StreamConfig{
			Elements: 1 << 18, Threads: 32,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.GBps(), "simGB/s")
}

// BenchmarkStreamAnchorEightNodes is the unstable 8-node test (6.5 GB/s in
// the paper's one successful run).
func BenchmarkStreamAnchorEightNodes(b *testing.B) {
	reportEmu(b, kernel(HardwareChickNodes(8), "stream", KernelParams{
		Elems: 512, Nodelets: 64, Threads: 4096, Strategy: RecursiveRemoteSpawn.String(),
	}))
}

// BenchmarkFig6PointerChaseEmu is Fig. 6's flat region: 512 threads,
// full shuffle, 64-element blocks.
func BenchmarkFig6PointerChaseEmu(b *testing.B) {
	reportEmu(b, kernel(HardwareChick(), "chase", KernelParams{
		Elems: 16384, Block: 64, Mode: FullBlockShuffle.String(),
		Seed: 1, Threads: 512, Nodelets: 8,
	}))
}

// BenchmarkFig6PointerChaseTraced is the observability-cost probe: the
// same run as BenchmarkFig6PointerChaseEmu with an aggregating observer
// attached. BenchmarkFig6PointerChaseEmu above is the nil-observer guard —
// its ns/op is tracked in BENCH_engine.json and must not regress for the
// emit path to count as free; the delta between the two is what tracing
// actually costs.
func BenchmarkFig6PointerChaseTraced(b *testing.B) {
	agg := NewTraceAggregator(0)
	reportEmu(b, kernel(HardwareChick(), "chase", KernelParams{
		Elems: 16384, Block: 64, Mode: FullBlockShuffle.String(),
		Seed: 1, Threads: 512, Nodelets: 8,
	}, WithObserver(agg)))
}

// BenchmarkFig6BlockOneDip is Fig. 6's defining dip: every element
// migrates.
func BenchmarkFig6BlockOneDip(b *testing.B) {
	reportEmu(b, kernel(HardwareChick(), "chase", KernelParams{
		Elems: 16384, Block: 1, Mode: FullBlockShuffle.String(),
		Seed: 1, Threads: 512, Nodelets: 8,
	}))
}

// BenchmarkFig7PointerChaseXeon is Fig. 7's sweet spot: 512-element
// (8 KiB, one DRAM page) blocks on Sandy Bridge.
func BenchmarkFig7PointerChaseXeon(b *testing.B) {
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := cpukernels.PointerChase(xeon.SandyBridgeXeon(), cpukernels.ChaseConfig{
			Elements: 1 << 18, BlockSize: 512, Mode: FullBlockShuffle, Seed: 1, Threads: 32,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MBps(), "simMB/s")
}

// BenchmarkFig8Utilization reports Fig. 8's headline: the Emu's
// pointer-chase bandwidth as a fraction of its measured STREAM peak.
func BenchmarkFig8Utilization(b *testing.B) {
	peak, err := Run(HardwareChick(), "stream", KernelParams{
		Elems: 2048, Nodelets: 8, Threads: 512, Strategy: RecursiveRemoteSpawn.String(),
	})
	if err != nil {
		b.Fatal(err)
	}
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := Run(HardwareChick(), "chase", KernelParams{
			Elems: 16384, Block: 64, Mode: FullBlockShuffle.String(),
			Seed: 1, Threads: 512, Nodelets: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		frac = res.Result().BytesPerSec() / peak.Result().BytesPerSec()
	}
	b.ReportMetric(frac*100, "%ofpeak")
}

// BenchmarkFig9aSpMVEmu is Fig. 9a's best case: the 2D layout at n=100.
func BenchmarkFig9aSpMVEmu(b *testing.B) {
	reportEmu(b, kernel(HardwareChick(), "spmv", KernelParams{GridN: 100, Layout: SpMV2D.String(), Grain: 16}))
}

// BenchmarkFig9aSpMVEmu1D and ...Local are the other two layout curves.
func BenchmarkFig9aSpMVEmu1D(b *testing.B) {
	reportEmu(b, kernel(HardwareChick(), "spmv", KernelParams{GridN: 100, Layout: SpMV1D.String(), Grain: 16}))
}

func BenchmarkFig9aSpMVEmuLocal(b *testing.B) {
	reportEmu(b, kernel(HardwareChick(), "spmv", KernelParams{GridN: 100, Layout: SpMVLocal.String(), Grain: 16}))
}

// BenchmarkFig9bSpMVXeon is Fig. 9b's MKL curve at a mid-size matrix.
func BenchmarkFig9bSpMVXeon(b *testing.B) {
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := cpukernels.SpMV(xeon.HaswellXeon(), cpukernels.SpMVConfig{
			GridN: 100, Variant: cpukernels.SpMVMKL, Threads: 56,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MBps(), "simMB/s")
}

// BenchmarkFig10ValidationGap reports the hardware/simulator bandwidth
// ratio on the migration-bound chase point — the Fig. 10 mismatch.
func BenchmarkFig10ValidationGap(b *testing.B) {
	p := KernelParams{
		Elems: 16384, Block: 1, Mode: FullBlockShuffle.String(),
		Seed: 1, Threads: 512, Nodelets: 8,
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		hw, err := Run(HardwareChick(), "chase", p)
		if err != nil {
			b.Fatal(err)
		}
		sm, err := Run(SimMatched(), "chase", p)
		if err != nil {
			b.Fatal(err)
		}
		ratio = sm.Result().BytesPerSec() / hw.Result().BytesPerSec()
	}
	b.ReportMetric(ratio, "sim/hw")
}

// BenchmarkMigrationAnchorPingPong is the section IV-D scalar: hardware
// ping-pong migration rate (paper: ~9 M/s).
func BenchmarkMigrationAnchorPingPong(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		m, err := Run(HardwareChick(), "pingpong", KernelParams{
			Threads: 64, Iters: 500, NodeletA: 0, NodeletB: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = m.PingPong().MigrationsPerSec / 1e6
	}
	b.ReportMetric(rate, "Mmig/s")
}

// BenchmarkFig11FullSpeed64 is the Fig. 11 projection: 64 nodelets at
// design speed, thousands of threads.
func BenchmarkFig11FullSpeed64(b *testing.B) {
	reportEmu(b, kernel(FullSpeed(8), "chase", KernelParams{
		Elems: 65536, Block: 128, Mode: FullBlockShuffle.String(),
		Seed: 1, Threads: 4096, Nodelets: 64,
	}))
}

// --- Extension benchmarks: the application substrates the paper's
// introduction motivates, plus model ablations.

// BenchmarkGraphTraversalClustered walks a STINGER-style graph whose edge
// blocks live on their vertices' nodelets.
func BenchmarkGraphTraversalClustered(b *testing.B) {
	benchGraphTraversal(b, PlaceAtVertex)
}

// BenchmarkGraphTraversalFragmented walks the same graph with blocks
// scattered round-robin — pointer chasing in application form.
func BenchmarkGraphTraversalFragmented(b *testing.B) {
	benchGraphTraversal(b, PlaceRoundRobin)
}

func benchGraphTraversal(b *testing.B, placement Placement) {
	b.Helper()
	var mbps float64
	for i := 0; i < b.N; i++ {
		sys := NewSystem(HardwareChick())
		g, err := NewGraph(sys, GraphConfig{
			Vertices: 1024, EdgesPerBlock: 4, Placement: placement, PoolBlocksPerNodelet: 4096,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := uint64(12345)
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		edges := 0
		for v := 0; v < 1024; v++ {
			for e := 0; e < 8; e++ {
				if err := g.BuildInsert(GraphEdge{Src: v, Dst: next(1024), Weight: 1}); err != nil {
					b.Fatal(err)
				}
				edges++
			}
		}
		walkers := NewWorkers(8, 128, RecursiveRemoteSpawn, func(id int) Body {
			var walks drives
			for v := id; v < 1024; v += 128 {
				walks = append(walks, g.WalkTimed(v, func(*Thread, int, uint64) bool { return true }))
			}
			return &walks
		})
		elapsed, err := sys.Run(&drives{walkers})
		if err != nil {
			b.Fatal(err)
		}
		mbps = float64(edges*16) / elapsed.Seconds() / 1e6
	}
	b.ReportMetric(mbps, "simMB/s")
}

// BenchmarkGraphBFS runs the level-synchronous BFS over an R-MAT graph —
// the STINGER-style analytics kernel the paper's introduction motivates.
func BenchmarkGraphBFS(b *testing.B) {
	cfg := workload.DefaultRMAT(10, 8) // 1024 vertices, 8192 edges
	edges, err := workload.RMAT(cfg, workload.NewRNG(42))
	if err != nil {
		b.Fatal(err)
	}
	var reached int
	for i := 0; i < b.N; i++ {
		sys := NewSystem(HardwareChick())
		g, err := NewGraph(sys, GraphConfig{
			Vertices: cfg.Vertices(), EdgesPerBlock: 4,
			Placement: PlaceAtVertex, PoolBlocksPerNodelet: len(edges),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range edges {
			if err := g.BuildInsert(GraphEdge{Src: e.Src, Dst: e.Dst, Weight: 1}); err != nil {
				b.Fatal(err)
			}
		}
		bfs, err := BFS(g, 0, 64)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(&drives{bfs}); err != nil {
			b.Fatal(err)
		}
		dist := bfs.Dist()
		reached = 0
		for _, d := range dist {
			if d >= 0 {
				reached++
			}
		}
	}
	b.ReportMetric(float64(reached), "verticesReached")
}

// BenchmarkTensorTTV2D contracts a sparse tensor under the slice-blocked
// layout (the ParTI motivation).
func BenchmarkTensorTTV2D(b *testing.B) {
	reportEmu(b, func() (Result, error) {
		return RunTTV(HardwareChick(), TTVConfig{
			Dims: [3]int{64, 64, 64}, NNZ: 20000, Seed: 1, Layout: TensorLayout2D, GrainNNZ: 16,
		})
	})
}

// BenchmarkAblationReplicatedX is the smart-migration ablation headline:
// SpMV 2D with the input vector replicated (vs striped in the experiment).
func BenchmarkAblationReplicatedX(b *testing.B) {
	reportEmu(b, kernel(HardwareChick(), "spmv", KernelParams{GridN: 50, Layout: SpMV2D.String(), Grain: 16}))
}

// threadletSleeper is the shared body of every proc in the threadlet-scale
// benchmark: park once until a fixed wake time, then exit. One instance is
// shared by every proc, so the per-proc footprint is exactly the Proc
// struct plus its registry and event-queue slots — the number the <200 B
// hardware-context claim translates to on the continuation engine.
type threadletSleeper struct{ wake sim.Time }

func (s *threadletSleeper) StepProc(p *sim.Proc) {
	if p.SleepUntil(s.wake) {
		return
	}
	p.Exit()
}

// BenchmarkThreadletScale spawns 2^20 continuation procs — the resident
// threadlet population of a 16-chassis full-speed rack — parks every one of
// them, wakes them all, and reports the measured heap bytes per parked proc.
// A goroutine per proc would need gigabytes of stacks; the continuation
// engine must stay within a small constant per proc, and the benchmark
// fails outright if the bound breaks. Wired into `make bench-gate` so the
// per-proc footprint and the end-to-end ns/op are both regression-gated.
func BenchmarkThreadletScale(b *testing.B) {
	const n = 1 << 20
	const maxBytesPerProc = 512
	var perProc float64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		eng := sim.NewEngineSized(n)
		body := &threadletSleeper{wake: sim.Microsecond}
		for k := 0; k < n; k++ {
			eng.SpawnContAt(0, "t", body)
		}
		if live := eng.LiveProcs(); live != n {
			b.Fatalf("spawned %d procs, %d live", n, live)
		}
		// Measure at the high-water mark: every proc spawned, none finished.
		runtime.ReadMemStats(&after)
		perProc = float64(after.HeapAlloc-before.HeapAlloc) / n
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		if live := eng.LiveProcs(); live != 0 {
			b.Fatalf("%d procs still live after Run", live)
		}
		if perProc > maxBytesPerProc {
			b.Fatalf("%.0f heap bytes per parked proc, bound is %d", perProc, maxBytesPerProc)
		}
	}
	b.ReportMetric(perProc, "B/proc")
}

// BenchmarkQuickExperimentSuite runs every registered experiment in quick
// mode — the end-to-end cost of regenerating all artifacts at CI scale.
func BenchmarkQuickExperimentSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range experiments.All() {
			if _, err := e.Run(experiments.WithScale(experiments.QuickScale), experiments.WithTrials(1)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

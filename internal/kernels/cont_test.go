package kernels

import (
	"testing"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/workload"
)

// Kernel-level engine equivalence: each kernel must report the exact same
// simulated elapsed time (and thus bandwidth/latency figures) as the
// goroutine engine it replaced, across every spawn strategy and both machine
// configurations the paper's figures use. The goroutine engine is gone, so
// its results for these configurations are recorded below; unlike the golden
// digests these runs attach no observer, so they also pin the untraced path.

func TestStreamEnginesAgreeAllStrategies(t *testing.T) {
	goroutine := map[cilk.Strategy]map[int]metrics.Result{
		cilk.SerialSpawn:          {1: {Bytes: 1536, Elapsed: 27190197}, 8: {Bytes: 12288, Elapsed: 306044786}},
		cilk.RecursiveSpawn:       {1: {Bytes: 1536, Elapsed: 31197059}, 8: {Bytes: 12288, Elapsed: 309771639}},
		cilk.SerialRemoteSpawn:    {1: {Bytes: 1536, Elapsed: 27456877}, 8: {Bytes: 12288, Elapsed: 307240382}},
		cilk.RecursiveRemoteSpawn: {1: {Bytes: 1536, Elapsed: 31463739}, 8: {Bytes: 12288, Elapsed: 309626968}},
	}
	for _, strat := range cilk.Strategies {
		for _, nodelets := range []int{1, 8} {
			cfg := StreamConfig{ElemsPerNodelet: 64, Nodelets: nodelets, Threads: 13, Strategy: strat}
			c, err := StreamAdd(machine.HardwareChick(), cfg)
			if err != nil {
				t.Fatalf("%v/%dnl continuation: %v", strat, nodelets, err)
			}
			if g := goroutine[strat][nodelets]; g != c {
				t.Errorf("%v/%dnl: goroutine %+v, continuation %+v", strat, nodelets, g, c)
			}
		}
	}
}

func TestStreamEnginesAgreeAllKernels(t *testing.T) {
	goroutine := map[StreamKernel]metrics.Result{
		StreamCopyKernel:  {Bytes: 4096, Elapsed: 59386856},
		StreamScaleKernel: {Bytes: 4096, Elapsed: 59386856},
		StreamAddKernel:   {Bytes: 6144, Elapsed: 84293528},
		StreamTriadKernel: {Bytes: 6144, Elapsed: 84293528},
	}
	for _, k := range StreamKernels {
		cfg := StreamConfig{Kernel: k, ElemsPerNodelet: 32, Nodelets: 8, Threads: 16, Strategy: cilk.RecursiveRemoteSpawn}
		c, err := Stream(machine.HardwareChick(), cfg)
		if err != nil {
			t.Fatalf("%v continuation: %v", k, err)
		}
		if g := goroutine[k]; g != c {
			t.Errorf("%v: goroutine %+v, continuation %+v", k, g, c)
		}
	}
}

func TestChaseEnginesAgree(t *testing.T) {
	type run struct {
		res   metrics.Result
		stats ChaseStats
	}
	goroutine := map[workload.ShuffleMode]run{
		workload.NoShuffle:        {metrics.Result{Bytes: 4096, Elapsed: 102414712}, ChaseStats{Migrations: 14, MigrationBytes: 2800}},
		workload.BlockShuffle:     {metrics.Result{Bytes: 4096, Elapsed: 102789172}, ChaseStats{Migrations: 13, MigrationBytes: 2600}},
		workload.FullBlockShuffle: {metrics.Result{Bytes: 4096, Elapsed: 102789172}, ChaseStats{Migrations: 13, MigrationBytes: 2600}},
	}
	for _, mode := range []workload.ShuffleMode{workload.NoShuffle, workload.BlockShuffle, workload.FullBlockShuffle} {
		cfg := ChaseConfig{Elements: 256, BlockSize: 16, Mode: mode, Seed: 7, Threads: 9, Nodelets: 8}
		c, cs, err := PointerChaseWithStats(machine.HardwareChick(), cfg)
		if err != nil {
			t.Fatalf("%v continuation: %v", mode, err)
		}
		if g := goroutine[mode]; g.res != c || g.stats != cs {
			t.Errorf("%v: goroutine %+v/%+v, continuation %+v/%+v", mode, g.res, g.stats, c, cs)
		}
	}
}

func TestPingPongEnginesAgree(t *testing.T) {
	goroutine := map[int]PingPongResult{
		1:  {Migrations: 50, Elapsed: 45891680, MigrationsPerSec: 1.0895221094542628e+06, MeanLatency: 917833},
		4:  {Migrations: 200, Elapsed: 46691720, MigrationsPerSec: 4.283414703934659e+06, MeanLatency: 933834},
		16: {Migrations: 800, Elapsed: 53941760, MigrationsPerSec: 1.4830810118171895e+07, MeanLatency: 1078835},
	}
	for _, threads := range []int{1, 4, 16} {
		cfg := PingPongConfig{Threads: threads, Iterations: 25, NodeletA: 0, NodeletB: 5}
		c, err := PingPong(machine.SimMatched(), cfg)
		if err != nil {
			t.Fatalf("threads=%d continuation: %v", threads, err)
		}
		if g := goroutine[threads]; g != c {
			t.Errorf("threads=%d: goroutine %+v, continuation %+v", threads, g, c)
		}
	}
}

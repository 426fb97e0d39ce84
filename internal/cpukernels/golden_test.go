package cpukernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"emuchick/internal/metrics"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// Golden digests for every CPU kernel. Each case runs one small
// configuration and hashes its metrics.Result, any kernel statistics
// (ChaseStats), and the platform's end state: the engine's final time and
// event count, the DRAM line, writeback and streaming-store counts, the
// row-hit ratio, and the busiest channel's utilization. The digests were
// recorded from the goroutine-hosted implementations these kernels used to
// have, so the continuation kernels are held to the old event order bit for
// bit. internal/xeon/golden_test.go pins the thread model underneath at
// finer grain (per-operation times, every core and channel queue).

type cpuGoldenCase struct {
	name string
	run  func() (metrics.Result, []int64, error)
}

func cpuGoldenCases() []cpuGoldenCase {
	var cases []cpuGoldenCase
	sandy, haswell := xeon.SandyBridgeXeon(), xeon.HaswellXeon()
	tiny := xeon.SandyBridgeXeon()
	tiny.L2Bytes, tiny.L2Assoc = 16*64, 4
	tiny.L3Bytes, tiny.L3Assoc = 64*64, 4
	noPrefetch := xeon.SandyBridgeXeon()
	noPrefetch.PrefetchDegree = 0
	freeSpawn := xeon.HaswellXeon()
	freeSpawn.SpawnOverhead = 0

	result := func(res metrics.Result, err error) (metrics.Result, []int64, error) { return res, nil, err }
	stream := func(name string, ccfg xeon.Config, cfg StreamConfig) {
		cases = append(cases, cpuGoldenCase{name, func() (metrics.Result, []int64, error) {
			return result(StreamAdd(ccfg, cfg))
		}})
	}
	stream("stream/n1000/t1", sandy, StreamConfig{Elements: 1000, Threads: 1})
	stream("stream/n1000/t13", sandy, StreamConfig{Elements: 1000, Threads: 13})
	stream("stream/n4096/t32", sandy, StreamConfig{Elements: 4096, Threads: 32})
	stream("stream/n4096/t64", sandy, StreamConfig{Elements: 4096, Threads: 64})
	stream("stream/noprefetch", noPrefetch, StreamConfig{Elements: 2048, Threads: 8})
	stream("stream/n5/t8", sandy, StreamConfig{Elements: 5, Threads: 8})

	chase := func(name string, ccfg xeon.Config, cfg ChaseConfig) {
		cases = append(cases, cpuGoldenCase{name, func() (metrics.Result, []int64, error) {
			res, st, err := PointerChaseWithStats(ccfg, cfg)
			return res, []int64{st.DRAMLineBytes, st.WritebackBytes}, err
		}})
	}
	for _, mode := range workload.ShuffleModes {
		for _, block := range []int{1, 16, 512} {
			chase(fmt.Sprintf("chase/%v/b%d", mode, block), sandy,
				ChaseConfig{Elements: 4096, BlockSize: block, Mode: mode, Seed: 5, Threads: 8})
		}
	}
	chase("chase/t1", sandy, ChaseConfig{Elements: 4096, BlockSize: 64, Mode: workload.FullBlockShuffle, Seed: 3, Threads: 1})
	chase("chase/t40/n32", sandy, ChaseConfig{Elements: 32, BlockSize: 4, Mode: workload.BlockShuffle, Seed: 3, Threads: 40})
	chase("chase/tiny", tiny, ChaseConfig{Elements: 8192, BlockSize: 8, Mode: workload.FullBlockShuffle, Seed: 9, Threads: 16})

	spmv := func(name string, ccfg xeon.Config, cfg SpMVConfig) {
		cases = append(cases, cpuGoldenCase{name, func() (metrics.Result, []int64, error) {
			return result(SpMV(ccfg, cfg))
		}})
	}
	spmv("spmv/mkl", haswell, SpMVConfig{GridN: 16, Variant: SpMVMKL, Threads: 8})
	spmv("spmv/cilk_for", haswell, SpMVConfig{GridN: 16, Variant: SpMVCilkFor, Threads: 8})
	for _, grain := range []int{16, 256, 100000} {
		spmv(fmt.Sprintf("spmv/cilk_spawn/g%d", grain), haswell,
			SpMVConfig{GridN: 16, Variant: SpMVCilkSpawn, Threads: 8, GrainNNZ: grain})
	}
	spmv("spmv/mkl/n5/t56", haswell, SpMVConfig{GridN: 5, Variant: SpMVMKL, Threads: 56})
	spmv("spmv/cilk_for/sandy", sandy, SpMVConfig{GridN: 12, Variant: SpMVCilkFor, Threads: 32})
	spmv("spmv/cilk_spawn/freespawn", freeSpawn, SpMVConfig{GridN: 16, Variant: SpMVCilkSpawn, Threads: 8, GrainNNZ: 64})
	return cases
}

var cpuKernelGolden = map[string]string{
	"stream/n1000/t1":                "f4282e6a2e2bbbf8d4ed5ebad7d130a86a943380ab47ff16199ea0136394bea6",
	"stream/n1000/t13":               "c0bcda11c908d09ed083483cad90ed4692b5d68d8725beb0d4514f5d29e08575",
	"stream/n4096/t32":               "00a240bacc39866997404cbbb7b39bea8098beed68a9fef7eb1de596fbd3dc48",
	"stream/n4096/t64":               "bdf9613cf22d6fb6e43efdb50f95ce38155509ccd852543b54562417874bf174",
	"stream/noprefetch":              "6c2d2fe5325401ff0463f43867d27dccf4bfa82dcfa810185135fb699ec2fc07",
	"stream/n5/t8":                   "6825908c4c827ebedd2a764cdb7e2375594e89abdec7d84d0202a4e8b407c82b",
	"chase/no_shuffle/b1":            "38c84d2b720097fc15ede1ae4833a8cf22584ca228fa19c8c28dd680b37a32b2",
	"chase/no_shuffle/b16":           "38c84d2b720097fc15ede1ae4833a8cf22584ca228fa19c8c28dd680b37a32b2",
	"chase/no_shuffle/b512":          "38c84d2b720097fc15ede1ae4833a8cf22584ca228fa19c8c28dd680b37a32b2",
	"chase/intra_block_shuffle/b1":   "38c84d2b720097fc15ede1ae4833a8cf22584ca228fa19c8c28dd680b37a32b2",
	"chase/intra_block_shuffle/b16":  "274cb6e4e1cf4b9f14253f6ed80290f2f00adadb673e580486d82ff3c5c06aad",
	"chase/intra_block_shuffle/b512": "7559a69262ed09b8845523d88fbe4e15f8be6a31d35b65a0a3f207926ffc9064",
	"chase/block_shuffle/b1":         "60a25daafce7783fa5c0a7b59e2c23cea7984eecf6082347753ff2288955bbaf",
	"chase/block_shuffle/b16":        "53d0884e2aae70a14740cc406bd355425321fd11d02ffdffb46c784a5fbca069",
	"chase/block_shuffle/b512":       "4eda62abf950849b8c59cc826f2b10f3ff7892837e523cb2a73164e6df544a46",
	"chase/full_block_shuffle/b1":    "60a25daafce7783fa5c0a7b59e2c23cea7984eecf6082347753ff2288955bbaf",
	"chase/full_block_shuffle/b16":   "739c415052fb4c458b7cc9040e6b3b3742fe81a2abdeedbc15bf3ed73a9e4cc4",
	"chase/full_block_shuffle/b512":  "b276348dc57d32274cfd31d93244982de735c092c1ba91dde19d9d963e347bdf",
	"chase/t1":                       "14f1fb8ad7d010ae3f8457c79102bd8c1ee76e56ef4c7da1dc2ab838b46cb5d1",
	"chase/t40/n32":                  "27702380692816997635257f19bbaf2124cb258861f97b89a5c95e6773d1a407",
	"chase/tiny":                     "818eee2c16704343932b12719c927bd35bcd6d55ddb967c89dda0288e8cacd45",
	"spmv/mkl":                       "016847e41c0c43d32851b9c7c0d9a791244c9c7d7ba1437c9cdd84cd90425c0a",
	"spmv/cilk_for":                  "972d7a51dec42fdb74a38ebdeb2972fae90de37ce9d0e81117dfac802b942fca",
	"spmv/cilk_spawn/g16":            "f287e078daeedb0f5d58df342eb7e8f10d709d88939ea0f77bb844bec1cb3647",
	"spmv/cilk_spawn/g256":           "718fd7ee76fc1fc8345ac035a808584f968edb68df7274fecf2a59c3149b4713",
	"spmv/cilk_spawn/g100000":        "8ea7b330c0f149a8dc45e06d2664cfc2a55d3e6a7635b5c27669ca5fc5ce3830",
	"spmv/mkl/n5/t56":                "751a2b704c7f3976bb2d5e925b3845031463c5575808f544d8f6f5383ee88048",
	"spmv/cilk_for/sandy":            "648763790a6e3256b9b8450bc232e1b0d23391193a6cea560a34a5db4a116cd6",
	"spmv/cilk_spawn/freespawn":      "07ea5d1e5144697f2c227544792e4afb56780b75a5d0fd6cbdfdabdc9eb8ff93",
}

func TestCPUKernelGoldenDigests(t *testing.T) {
	last := recordSystems(t)
	for _, c := range cpuGoldenCases() {
		res, stats, err := c.run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		sys := last()
		h := sha256.New()
		put := func(vs ...int64) {
			var buf []byte
			for _, v := range vs {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
			h.Write(buf)
		}
		put('R', res.Bytes, int64(res.Elapsed))
		put(append([]int64{'X'}, stats...)...)
		now := sys.Eng.Now()
		put('S', int64(now), int64(sys.Eng.Fired()), int64(sys.DRAMLines), int64(sys.WritebackLines),
			int64(sys.NTWriteLines), int64(math.Float64bits(sys.RowHitRatio())),
			int64(math.Float64bits(sys.PeakChannelUtilization(now))))
		if got, want := hex.EncodeToString(h.Sum(nil)), cpuKernelGolden[c.name]; got != want {
			t.Errorf("%s: digest drifted\n\t%q: %q,", c.name, c.name, got)
		}
	}
}

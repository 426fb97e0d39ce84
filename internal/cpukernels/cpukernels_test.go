package cpukernels

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"emuchick/internal/sim"
	"emuchick/internal/workload"
	"emuchick/internal/xeon"
)

// recordSystems makes newSystem note each platform it builds until tb
// ends, and returns a func reporting the latest, so a test can read a
// run's end state.
func recordSystems(tb testing.TB) (last func() *xeon.System) {
	var sys *xeon.System
	orig := newSystem
	newSystem = func(c xeon.Config) *xeon.System {
		sys = orig(c)
		return sys
	}
	tb.Cleanup(func() { newSystem = orig })
	return func() *xeon.System { return sys }
}

func TestShareTilesProperty(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		parts := int(pRaw%20) + 1
		next := 0
		for r := 0; r < parts; r++ {
			lo, hi := share(n, r, parts)
			if lo != next {
				return false
			}
			next = hi
		}
		return next == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCPUStreamVerifiesAndApproachesNominal(t *testing.T) {
	res, err := StreamAdd(xeon.SandyBridgeXeon(), StreamConfig{Elements: 1 << 18, Threads: 32})
	if err != nil {
		t.Fatal(err)
	}
	gb := res.GBps()
	// The paper: "close to the nominal bandwidth of 51.2 GB/s".
	if gb < 30 || gb > 52 {
		t.Fatalf("Sandy Bridge STREAM = %.1f GB/s, want near 51.2", gb)
	}
}

func TestCPUStreamThreadScaling(t *testing.T) {
	bw := func(threads int) float64 {
		res, err := StreamAdd(xeon.SandyBridgeXeon(), StreamConfig{Elements: 1 << 14, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		return res.GBps()
	}
	if one, many := bw(1), bw(16); many <= one {
		t.Fatalf("no scaling: 1->%v 16->%v", one, many)
	}
}

func TestCPUStreamRejectsBadConfig(t *testing.T) {
	for _, cfg := range []StreamConfig{{Elements: 0, Threads: 1}, {Elements: 8, Threads: 0}} {
		if _, err := StreamAdd(xeon.SandyBridgeXeon(), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestCPUKernelsHonourRunOptions: each kernel arms its engine with the
// run's context and event budget, and with neither arms nothing.
func TestCPUKernelsHonourRunOptions(t *testing.T) {
	sandy, haswell := xeon.SandyBridgeXeon(), xeon.HaswellXeon()
	run := map[string]func(...RunOption) error{
		"stream": func(opts ...RunOption) error {
			_, err := StreamAdd(sandy, StreamConfig{Elements: 4096, Threads: 8}, opts...)
			return err
		},
		"chase": func(opts ...RunOption) error {
			_, err := PointerChase(sandy, ChaseConfig{Elements: 4096, BlockSize: 4, Mode: workload.FullBlockShuffle, Seed: 1, Threads: 8}, opts...)
			return err
		},
		"spmv": func(opts ...RunOption) error {
			_, err := SpMV(haswell, SpMVConfig{GridN: 16, Variant: SpMVCilkSpawn, Threads: 8, GrainNNZ: 64}, opts...)
			return err
		},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, f := range run {
		var re *sim.RunError
		if err := f(WithMaxEvents(100)); !errors.As(err, &re) || re.Kind != sim.FailMaxEvents || re.Fired != 100 {
			t.Errorf("%s under a 100-event budget: %v", name, err)
		}
		if err := f(WithContext(cancelled)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: %v", name, err)
		}
		if err := f(WithContext(context.Background()), WithMaxEvents(1<<40)); err != nil {
			t.Errorf("%s under a live context and an ample budget: %v", name, err)
		}
	}
	sys := newRun(sandy, nil)
	if sys.Eng.Interrupt != nil || sys.Eng.MaxEvents != 0 {
		t.Error("a run without options armed its engine")
	}
}

// TestCPUChaseConservation derives the chase's memory traffic from its
// length alone. Each 16-byte element sits in one 64-byte line, so the walk
// makes exactly n demand line reads, one per element; prefetches probe the
// L2 without counting. Every list here fits the 20 MiB L3, so each
// element's 16 bytes are fetched from DRAM exactly once, in 64-byte lines;
// the prefetcher may run at most PrefetchDegree lines past the list's end,
// and a walk that only reads never writes a line back. n = 5000 gives
// blocks 64 and 4096 a short final block.
func TestCPUChaseConservation(t *testing.T) {
	last := recordSystems(t)
	ccfg := xeon.SandyBridgeXeon()
	for _, n := range []int{4096, 5000, 65536} {
		if n*16 > ccfg.L3Bytes {
			t.Fatalf("n=%d does not fit the L3", n)
		}
		for _, mode := range workload.ShuffleModes {
			for _, block := range []int{1, 4, 64, 4096} {
				cfg := ChaseConfig{Elements: n, BlockSize: block, Mode: mode, Seed: 11, Threads: 8}
				_, st, err := PointerChaseWithStats(ccfg, cfg)
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				if got := last().L2Accesses(); got != uint64(n) {
					t.Errorf("%+v: %d demand line reads, want one per element", cfg, got)
				}
				lo, hi := int64(n)*16, int64(n)*16+int64(ccfg.LineBytes*ccfg.PrefetchDegree)
				if st.DRAMLineBytes < lo || st.DRAMLineBytes > hi {
					t.Errorf("%+v: %d DRAM bytes, want %d..%d", cfg, st.DRAMLineBytes, lo, hi)
				}
				if st.WritebackBytes != 0 {
					t.Errorf("%+v: %d writeback bytes from a read-only walk", cfg, st.WritebackBytes)
				}
			}
		}
	}
}

func TestCPUChasePageSweetSpot(t *testing.T) {
	// Fig. 7: best performance between 256 and 4096 elements per block
	// (~one 8 KiB DRAM page); both small and much larger blocks are
	// worse.
	bw := func(block int) float64 {
		res, err := PointerChase(xeon.SandyBridgeXeon(), ChaseConfig{
			Elements: 1 << 16, BlockSize: block, Mode: workload.FullBlockShuffle, Seed: 3, Threads: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.GBps()
	}
	small := bw(4)
	sweet := bw(512) // 8 KiB
	large := bw(16384)
	if sweet <= small {
		t.Fatalf("page-size blocks (%v GB/s) should beat tiny blocks (%v GB/s)", sweet, small)
	}
	if sweet <= large {
		t.Fatalf("page-size blocks (%v GB/s) should beat page-crossing blocks (%v GB/s)", sweet, large)
	}
}

func TestCPUChaseWellBelowStreamPeak(t *testing.T) {
	// Fig. 8's CPU half: random pointer chasing over a list larger than
	// the L3 uses a small fraction of the machine's STREAM bandwidth.
	res, err := PointerChase(xeon.SandyBridgeXeon(), ChaseConfig{
		Elements: 1 << 21, BlockSize: 1, Mode: workload.FullBlockShuffle, Seed: 9, Threads: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if frac := res.BytesPerSec() / 51.2e9; frac > 0.25 {
		t.Fatalf("random chase at %.0f%% of nominal; paper says <25%%", frac*100)
	}
}

func TestCPUSpMVAllVariantsVerify(t *testing.T) {
	for _, v := range SpMVVariants {
		if _, err := SpMV(xeon.HaswellXeon(), SpMVConfig{
			GridN: 16, Variant: v, Threads: 8, GrainNNZ: 64,
		}); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

func TestCPUSpMVVariantNames(t *testing.T) {
	if SpMVMKL.String() != "mkl" || SpMVCilkFor.String() != "cilk_for" || SpMVCilkSpawn.String() != "cilk_spawn" {
		t.Fatal("variant names wrong")
	}
	if SpMVVariant(9).String() == "" {
		t.Fatal("unknown variant empty")
	}
}

func TestCPUSpMVLargeGrainBeatsSmall(t *testing.T) {
	// Section IV-C: "A large grain size of 16,384 for cilk_spawn works
	// best for CPU-based SpMV" — small grains drown in spawn overhead.
	// The matrix must be big enough that the large grain still yields at
	// least one task per core (nnz >= 56 * grain).
	bw := func(grain int) float64 {
		res, err := SpMV(xeon.HaswellXeon(), SpMVConfig{
			GridN: 320, Variant: SpMVCilkSpawn, Threads: 56, GrainNNZ: grain,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MBps()
	}
	small := bw(16)
	large := bw(8192)
	if large <= small {
		t.Fatalf("grain 8192 (%v MB/s) should beat grain 16 (%v MB/s) on the CPU", large, small)
	}
}

func TestCPUSpMVScalesWithMatrixSize(t *testing.T) {
	bw := func(n int) float64 {
		res, err := SpMV(xeon.HaswellXeon(), SpMVConfig{GridN: n, Variant: SpMVMKL, Threads: 56})
		if err != nil {
			t.Fatal(err)
		}
		return res.MBps()
	}
	if small, big := bw(8), bw(48); big <= small {
		t.Fatalf("MKL bandwidth should grow with n: %v -> %v", small, big)
	}
}

func TestCPUSpMVRejectsBadConfig(t *testing.T) {
	bad := []SpMVConfig{
		{GridN: 0, Variant: SpMVMKL, Threads: 1},
		{GridN: 4, Variant: SpMVMKL, Threads: 0},
		{GridN: 4, Variant: SpMVCilkSpawn, Threads: 1, GrainNNZ: 0},
		{GridN: 4, Variant: SpMVVariant(9), Threads: 1},
	}
	for _, cfg := range bad {
		if _, err := SpMV(xeon.HaswellXeon(), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

package kernels

import (
	"testing"
	"testing/quick"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
)

func TestShare(t *testing.T) {
	// 10 items over 3 parts: 4,3,3.
	wantLo := []int{0, 4, 7}
	wantHi := []int{4, 7, 10}
	for r := 0; r < 3; r++ {
		lo, hi := share(10, r, 3)
		if lo != wantLo[r] || hi != wantHi[r] {
			t.Fatalf("share(10,%d,3) = [%d,%d)", r, lo, hi)
		}
	}
	if lo, hi := share(5, 0, 0); lo != 0 || hi != 0 {
		t.Fatal("zero parts not empty")
	}
}

// Property: share tiles [0,n) exactly for any n and parts.
func TestSharePartitionProperty(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		parts := int(pRaw%32) + 1
		next := 0
		for r := 0; r < parts; r++ {
			lo, hi := share(n, r, parts)
			if lo != next || hi < lo {
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

func TestStreamAddVerifies(t *testing.T) {
	res, err := StreamAdd(machine.HardwareChick(), StreamConfig{
		ElemsPerNodelet: 64, Nodelets: 8, Threads: 16, Strategy: cilk.SerialRemoteSpawn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 64*8*24 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestStreamSingleNodeletThreadScaling(t *testing.T) {
	bw := func(threads int) float64 {
		res, err := StreamAdd(machine.HardwareChick(), StreamConfig{
			ElemsPerNodelet: 512, Nodelets: 1, Threads: threads, Strategy: cilk.SerialSpawn,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MBps()
	}
	b1, b8, b64 := bw(1), bw(8), bw(64)
	if b8 < 4*b1 {
		t.Fatalf("8 threads only %.1fx of 1 thread (%v vs %v)", b8/b1, b8, b1)
	}
	if b64 < b8 {
		t.Fatalf("scaling regressed: 8->%v 64->%v", b8, b64)
	}
	// Plateau: 64 threads should not be 8x of 8 threads.
	if b64 > 6*b8 {
		t.Fatalf("no plateau: 8->%v 64->%v", b8, b64)
	}
}

func TestStreamRemoteSpawnBeatsSerial(t *testing.T) {
	bw := func(s cilk.Strategy) float64 {
		res, err := StreamAdd(machine.HardwareChick(), StreamConfig{
			ElemsPerNodelet: 128, Nodelets: 8, Threads: 256, Strategy: s,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MBps()
	}
	serial := bw(cilk.SerialSpawn)
	remote := bw(cilk.SerialRemoteSpawn)
	if remote <= serial {
		t.Fatalf("remote spawn (%v MB/s) should beat serial spawn (%v MB/s)", remote, serial)
	}
}

func TestStreamNodePeakNearPaper(t *testing.T) {
	// The calibrated model should produce roughly the paper's 1.2 GB/s
	// node STREAM peak (within ~25%).
	res, err := StreamAdd(machine.HardwareChick(), StreamConfig{
		ElemsPerNodelet: 1024, Nodelets: 8, Threads: 512, Strategy: cilk.RecursiveRemoteSpawn,
	})
	if err != nil {
		t.Fatal(err)
	}
	gb := res.GBps()
	if gb < 0.9 || gb > 1.5 {
		t.Fatalf("node STREAM peak = %.3f GB/s, want ~1.2", gb)
	}
}

func TestStreamKernelNames(t *testing.T) {
	want := map[StreamKernel]string{
		StreamAddKernel: "add", StreamCopyKernel: "copy",
		StreamScaleKernel: "scale", StreamTriadKernel: "triad",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if StreamKernel(9).String() == "" {
		t.Error("unknown kernel String empty")
	}
}

func TestStreamAllKernelsVerify(t *testing.T) {
	for _, k := range StreamKernels {
		res, err := Stream(machine.HardwareChick(), StreamConfig{
			Kernel: k, ElemsPerNodelet: 64, Nodelets: 8, Threads: 16,
			Strategy: cilk.SerialRemoteSpawn,
		})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Bytes != 64*8*k.bytesPerElement() {
			t.Fatalf("%v: bytes = %d", k, res.Bytes)
		}
	}
}

func TestStreamCopyMovesFewerBytesButRunsFaster(t *testing.T) {
	run := func(k StreamKernel) metrics.Result {
		res, err := Stream(machine.HardwareChick(), StreamConfig{
			Kernel: k, ElemsPerNodelet: 256, Nodelets: 8, Threads: 64,
			Strategy: cilk.SerialRemoteSpawn,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cp, add := run(StreamCopyKernel), run(StreamAddKernel)
	if cp.Bytes >= add.Bytes {
		t.Fatal("copy should count fewer bytes than add")
	}
	if cp.Elapsed >= add.Elapsed {
		t.Fatalf("copy (%v) should finish before add (%v)", cp.Elapsed, add.Elapsed)
	}
}

func TestStreamRejectsBadConfig(t *testing.T) {
	bad := []StreamConfig{
		{ElemsPerNodelet: 0, Nodelets: 1, Threads: 1},
		{ElemsPerNodelet: 8, Nodelets: 0, Threads: 1},
		{ElemsPerNodelet: 8, Nodelets: 1, Threads: 0},
		{ElemsPerNodelet: 8, Nodelets: 99, Threads: 1},
	}
	for _, cfg := range bad {
		if _, err := StreamAdd(machine.HardwareChick(), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

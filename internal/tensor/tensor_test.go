package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"emuchick/internal/machine"
	"emuchick/internal/workload"
)

func TestRandomTensorValid(t *testing.T) {
	x := Random([3]int{10, 12, 14}, 200, workload.NewRNG(3))
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if x.NNZ() != 200 {
		t.Fatalf("NNZ = %d", x.NNZ())
	}
	// Sorted by (i, j, k).
	for n := 1; n < x.NNZ(); n++ {
		a := int64(x.I[n-1])<<40 | int64(x.J[n-1])<<20 | int64(x.K[n-1])
		b := int64(x.I[n])<<40 | int64(x.J[n])<<20 | int64(x.K[n])
		if b < a {
			t.Fatal("entries not sorted")
		}
	}
}

func TestValidateCatchesBadTensors(t *testing.T) {
	x := Random([3]int{4, 4, 4}, 10, workload.NewRNG(1))
	x.I[0] = 4
	if x.Validate() == nil {
		t.Fatal("out-of-range coordinate not caught")
	}
	y := Random([3]int{4, 4, 4}, 10, workload.NewRNG(1))
	y.Val = y.Val[:9]
	if y.Validate() == nil {
		t.Fatal("length mismatch not caught")
	}
	z := &COO{Dims: [3]int{0, 1, 1}}
	if z.Validate() == nil {
		t.Fatal("zero mode size not caught")
	}
}

func TestTTVReference(t *testing.T) {
	// Hand-checkable tensor: X(0,0,0)=2, X(0,1,1)=3, X(1,0,0)=5.
	x := &COO{
		Dims: [3]int{2, 2, 2},
		I:    []int32{0, 0, 1},
		J:    []int32{0, 1, 0},
		K:    []int32{0, 1, 0},
		Val:  []float64{2, 3, 5},
	}
	y := x.TTV([]float64{10, 100})
	want := []float64{20, 300, 50, 0}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	x.TTV([]float64{1})
}

// Property: TTV is linear in the vector.
func TestTTVLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		x := Random([3]int{6, 5, 7}, 60, rng)
		u := make([]float64, 7)
		v := make([]float64, 7)
		w := make([]float64, 7)
		for k := range u {
			u[k] = rng.Float64()
			v[k] = rng.Float64()
			w[k] = 2*u[k] - 3*v[k]
		}
		yu, yv, yw := x.TTV(u), x.TTV(v), x.TTV(w)
		for c := range yw {
			if math.Abs(yw[c]-(2*yu[c]-3*yv[c])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPackCoordRoundTripProperty(t *testing.T) {
	f := func(i, j, k uint32) bool {
		i &= 0x1FFFFF
		j &= 0x1FFFFF
		k &= 0x1FFFFF
		gi, gj, gk := unpackCoord(packCoord(int32(i), int32(j), int32(k)))
		return gi == int32(i) && gj == int32(j) && gk == int32(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTTVEmuBothLayoutsVerify(t *testing.T) {
	for _, layout := range Layouts {
		res, err := TTVEmu(machine.HardwareChick(), TTVConfig{
			Dims: [3]int{16, 16, 16}, NNZ: 400, Seed: 5, Layout: layout, GrainNNZ: 16,
		})
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		if res.Bytes != 400*32 || res.Elapsed <= 0 {
			t.Fatalf("%v: result %+v", layout, res)
		}
	}
}

func TestTTVEmu2DBeats1D(t *testing.T) {
	bw := func(layout Layout) float64 {
		res, err := TTVEmu(machine.HardwareChick(), TTVConfig{
			Dims: [3]int{24, 24, 24}, NNZ: 2000, Seed: 9, Layout: layout, GrainNNZ: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MBps()
	}
	if d1, d2 := bw(Layout1D), bw(Layout2D); d2 <= d1 {
		t.Fatalf("2d (%v MB/s) should beat 1d (%v MB/s)", d2, d1)
	}
}

func TestTTVEmuRejectsBadConfig(t *testing.T) {
	if _, err := TTVEmu(machine.HardwareChick(), TTVConfig{
		Dims: [3]int{4, 4, 4}, NNZ: 0, GrainNNZ: 4,
	}); err == nil {
		t.Fatal("zero nnz accepted")
	}
	if _, err := TTVEmu(machine.HardwareChick(), TTVConfig{
		Dims: [3]int{4, 4, 4}, NNZ: 8, GrainNNZ: 0,
	}); err == nil {
		t.Fatal("zero grain accepted")
	}
	if Layout(9).String() == "" {
		t.Fatal("unknown layout String empty")
	}
	if Layout1D.String() != "1d" || Layout2D.String() != "2d" {
		t.Fatal("layout names wrong")
	}
}

// TestOversizedModesRejected: entries pack each coordinate into a 21-bit
// field and sort on 20-bit J/K key fields, so both kernels refuse a mode
// beyond MaxModeSize (or an empty one) before building the tensor, instead
// of corrupting coordinates mid-simulation. A mode of exactly MaxModeSize
// still runs.
func TestOversizedModesRejected(t *testing.T) {
	for _, dims := range [][3]int{{1, 1 << 22, 1}, {MaxModeSize + 1, 4, 4}, {4, 4, MaxModeSize + 1}, {4, 0, 4}} {
		if _, err := TTVEmu(machine.HardwareChick(), TTVConfig{Dims: dims, NNZ: 16, Seed: 1, Layout: Layout2D, GrainNNZ: 4}); err == nil {
			t.Errorf("TTV accepted dims %v", dims)
		}
		if _, err := MTTKRPEmu(machine.HardwareChick(), MTTKRPConfig{Dims: dims, NNZ: 16, Rank: 2, Seed: 1, Layout: Layout2D, GrainNNZ: 4}); err == nil {
			t.Errorf("MTTKRP accepted dims %v", dims)
		}
	}
	if _, err := TTVEmu(machine.HardwareChick(), TTVConfig{Dims: [3]int{1, MaxModeSize, 2}, NNZ: 16, Seed: 1, Layout: Layout2D, GrainNNZ: 4}); err != nil {
		t.Fatalf("TTV at the mode limit: %v", err)
	}
}

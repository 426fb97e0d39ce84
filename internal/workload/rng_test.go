package workload

import (
	"slices"
	"testing"
	"testing/quick"
)

// TestRNGDeterminism: a seed fixes the stream and everything drawn from
// it. Seed 42 is constructed 32 times in one process, and each time its
// first 100 values, a full-shuffle list order and a GUPS stream drawn from
// it must match the first construction's.
func TestRNGDeterminism(t *testing.T) {
	draw := func() (vals []uint64, order, gups []int) {
		r := NewRNG(42)
		for range 100 {
			vals = append(vals, r.Uint64())
		}
		VisitList(1000, 8, FullBlockShuffle, r, func(_, p int) { order = append(order, p) })
		return vals, order, GUPSStream(500, 1<<10, r)
	}
	vals, order, gups := draw()
	for i := 1; i < 32; i++ {
		v, o, g := draw()
		if !slices.Equal(v, vals) || !slices.Equal(o, order) || !slices.Equal(g, gups) {
			t.Fatalf("construction %d of seed 42 diverged from the first", i)
		}
	}
	a, c := NewRNG(42), NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleActuallyPermutes(t *testing.T) {
	// A 1000-element shuffle leaving everything fixed would indicate a
	// broken swap loop.
	r := NewRNG(11)
	p := r.Perm(1000)
	moved := 0
	for i, v := range p {
		if i != v {
			moved++
		}
	}
	if moved < 900 {
		t.Fatalf("only %d of 1000 elements moved", moved)
	}
}

// Property: Perm(n) is a bijection for any n and seed.
func TestPermProperty(t *testing.T) {
	f := func(nRaw uint8, seed uint64) bool {
		n := int(nRaw % 128)
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64Distribution(t *testing.T) {
	// Crude sanity: over 64k draws, each of the top 4 bits should be set
	// roughly half the time.
	r := NewRNG(1234)
	const draws = 1 << 16
	var counts [4]int
	for i := 0; i < draws; i++ {
		v := r.Uint64()
		for b := 0; b < 4; b++ {
			if v&(1<<(63-b)) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / draws
		if frac < 0.45 || frac > 0.55 {
			t.Fatalf("bit %d set fraction %.3f", b, frac)
		}
	}
}

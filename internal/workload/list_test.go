package workload

import (
	"math"
	"testing"
	"testing/quick"
)

// ListOrder is the reference VisitList is held to: it materializes the
// whole visit order the obvious way, as element memory positions, drawing
// the block order from rng first and then each block's permutation in
// visit order.
func ListOrder(n, blockSize int, mode ShuffleMode, rng *RNG) []int {
	if n < 0 {
		panic("workload: negative list length")
	}
	if blockSize <= 0 {
		panic("workload: block size must be positive")
	}
	if n == 0 {
		return nil
	}
	numBlocks := (n + blockSize - 1) / blockSize

	blockOrder := make([]int, numBlocks)
	for i := range blockOrder {
		blockOrder[i] = i
	}
	if mode == BlockShuffle || mode == FullBlockShuffle {
		rng.Shuffle(numBlocks, func(i, j int) {
			blockOrder[i], blockOrder[j] = blockOrder[j], blockOrder[i]
		})
	}

	order := make([]int, 0, n)
	scratch := make([]int, 0, blockSize)
	for _, b := range blockOrder {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		scratch = scratch[:0]
		for p := lo; p < hi; p++ {
			scratch = append(scratch, p)
		}
		if mode == IntraBlockShuffle || mode == FullBlockShuffle {
			rng.Shuffle(len(scratch), func(i, j int) {
				scratch[i], scratch[j] = scratch[j], scratch[i]
			})
		}
		order = append(order, scratch...)
	}
	return order
}

// visitOrder collects the positions VisitList yields, failing the test
// unless it numbers its visits 0, 1, 2, ...
func visitOrder(t *testing.T, n, blockSize int, mode ShuffleMode, rng *RNG) []int {
	t.Helper()
	var order []int
	VisitList(n, blockSize, mode, rng, func(i, p int) {
		if i != len(order) {
			t.Fatalf("visit %d numbered %d", len(order), i)
		}
		order = append(order, p)
	})
	return order
}

// checkAgainstReference fails unless VisitList yields ListOrder's order
// element by element and leaves rng where ListOrder leaves it.
func checkAgainstReference(t *testing.T, n, blockSize int, mode ShuffleMode, seed uint64) {
	t.Helper()
	ref, got := NewRNG(seed), NewRNG(seed)
	want := ListOrder(n, blockSize, mode, ref)
	k := 0
	VisitList(n, blockSize, mode, got, func(i, p int) {
		if i != k || k >= len(want) || p != want[k] {
			t.Fatalf("n=%d block=%d %v seed=%d: visit %d (numbered %d) is position %d, want %v",
				n, blockSize, mode, seed, k, i, p, want[k:min(k+1, len(want))])
		}
		k++
	})
	if k != len(want) {
		t.Fatalf("n=%d block=%d %v seed=%d: %d visits, want %d", n, blockSize, mode, seed, k, len(want))
	}
	if a, b := ref.Uint64(), got.Uint64(); a != b {
		t.Fatalf("n=%d block=%d %v seed=%d: rng state after the walk differs from the reference",
			n, blockSize, mode, seed)
	}
}

func TestShuffleModeNames(t *testing.T) {
	want := map[ShuffleMode]string{
		NoShuffle:         "no_shuffle",
		IntraBlockShuffle: "intra_block_shuffle",
		BlockShuffle:      "block_shuffle",
		FullBlockShuffle:  "full_block_shuffle",
	}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
		parsed, err := ParseShuffleMode(name)
		if err != nil || parsed != m {
			t.Errorf("ParseShuffleMode(%q) = %v, %v", name, parsed, err)
		}
	}
	if _, err := ParseShuffleMode("nope"); err == nil {
		t.Error("bogus mode accepted")
	}
	if ShuffleMode(42).String() == "" {
		t.Error("unknown mode String empty")
	}
}

func TestNoShuffleIsIdentity(t *testing.T) {
	order := visitOrder(t, 10, 4, NoShuffle, NewRNG(1))
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

func TestIntraBlockKeepsBlockSequence(t *testing.T) {
	const n, bs = 64, 8
	order := visitOrder(t, n, bs, IntraBlockShuffle, NewRNG(3))
	// The k-th group of bs visits must cover exactly block k.
	for b := 0; b < n/bs; b++ {
		for k := b * bs; k < (b+1)*bs; k++ {
			if order[k]/bs != b {
				t.Fatalf("visit %d touches block %d, want %d", k, order[k]/bs, b)
			}
		}
	}
}

func TestBlockShuffleKeepsWithinBlockSequence(t *testing.T) {
	const n, bs = 64, 8
	order := visitOrder(t, n, bs, BlockShuffle, NewRNG(3))
	for k := 0; k < n; k += bs {
		base := order[k]
		if base%bs != 0 {
			t.Fatalf("block visit %d starts mid-block at %d", k/bs, base)
		}
		for j := 0; j < bs; j++ {
			if order[k+j] != base+j {
				t.Fatalf("within-block order broken at visit %d", k+j)
			}
		}
	}
}

func TestFullShuffleStillVisitsBlocksAtomically(t *testing.T) {
	const n, bs = 96, 8
	order := visitOrder(t, n, bs, FullBlockShuffle, NewRNG(5))
	// Consecutive runs of bs visits must stay within one block ("all
	// elements within a block are accessed before jumping to the next").
	for k := 0; k < n; k += bs {
		b := order[k] / bs
		for j := 1; j < bs; j++ {
			if order[k+j]/bs != b {
				t.Fatalf("block broken across visits %d..%d", k, k+j)
			}
		}
	}
}

func TestShufflesActuallyShuffle(t *testing.T) {
	const n, bs = 1024, 16
	for _, mode := range []ShuffleMode{IntraBlockShuffle, BlockShuffle, FullBlockShuffle} {
		order := visitOrder(t, n, bs, mode, NewRNG(7))
		fixed := 0
		for i, v := range order {
			if i == v {
				fixed++
			}
		}
		if fixed > n/2 {
			t.Errorf("%v left %d of %d positions fixed", mode, fixed, n)
		}
	}
}

func TestListOrderShortFinalBlock(t *testing.T) {
	// 10 elements in blocks of 4: final block has 2.
	for _, mode := range ShuffleModes {
		order := visitOrder(t, 10, 4, mode, NewRNG(2))
		if len(order) != 10 {
			t.Fatalf("%v: len = %d", mode, len(order))
		}
		seen := make([]bool, 10)
		for _, v := range order {
			if v < 0 || v >= 10 || seen[v] {
				t.Fatalf("%v: not a permutation: %v", mode, order)
			}
			seen[v] = true
		}
	}
}

func TestListOrderDegenerateCases(t *testing.T) {
	if got := visitOrder(t, 0, 4, FullBlockShuffle, NewRNG(1)); len(got) != 0 {
		t.Fatal("n=0 not empty")
	}
	// blockSize 1 with full shuffle is a global permutation.
	order := visitOrder(t, 32, 1, FullBlockShuffle, NewRNG(1))
	if len(order) != 32 {
		t.Fatal("blockSize 1 wrong length")
	}
	// blockSize >= n with intra shuffle is also a global permutation.
	order = visitOrder(t, 32, 64, IntraBlockShuffle, NewRNG(1))
	if len(order) != 32 {
		t.Fatal("oversized block wrong length")
	}
	for _, f := range []func(){
		func() { VisitList(-1, 4, NoShuffle, NewRNG(1), func(int, int) {}) },
		func() { VisitList(4, 0, NoShuffle, NewRNG(1), func(int, int) {}) },
		func() { VisitList(math.MaxInt32+1, 4, NoShuffle, NewRNG(1), func(int, int) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid VisitList args did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: for every mode, n, blockSize, and seed, VisitList yields a
// permutation of [0, n) that visits each block contiguously.
func TestListOrderPermutationProperty(t *testing.T) {
	f := func(nRaw, bsRaw uint8, modeRaw uint8, seed uint64) bool {
		n := int(nRaw % 200)
		bs := int(bsRaw%32) + 1
		mode := ShuffleModes[int(modeRaw)%len(ShuffleModes)]
		order := visitOrder(t, n, bs, mode, NewRNG(seed))
		if len(order) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range order {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		// Block atomicity: once a block is left it is never revisited.
		visited := map[int]bool{}
		cur := -1
		for _, v := range order {
			b := v / bs
			if b != cur {
				if visited[b] {
					return false
				}
				visited[b] = true
				cur = b
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestVisitListMatchesListOrder holds the streaming walk to the reference
// element by element: every n up to 300, block sizes 1, 2, 3, 7, n-1, n,
// n+1 and well past n (so short final blocks and single-block lists), all
// four modes, and seeds including 0.
func TestVisitListMatchesListOrder(t *testing.T) {
	for n := 0; n <= 300; n++ {
		for _, bs := range []int{1, 2, 3, 7, n - 1, n, n + 1, 2*n + 5} {
			if bs <= 0 {
				continue
			}
			for _, mode := range ShuffleModes {
				for _, seed := range []uint64{0, 1, uint64(n)*7919 + uint64(bs)} {
					checkAgainstReference(t, n, bs, mode, seed)
				}
			}
		}
	}
}

// FuzzVisitList explores lengths up to 511, block sizes 1..1024 (past n as
// often as not) and arbitrary modes and seeds against the reference.
// Tier 1 replays the corpus in testdata/fuzz/FuzzVisitList.
func FuzzVisitList(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint16, blockSize uint16, mode uint8, seed uint64) {
		checkAgainstReference(t, int(n%512), int(blockSize%1024)+1,
			ShuffleModes[int(mode)%len(ShuffleModes)], seed)
	})
}

func TestGUPSStream(t *testing.T) {
	idx := GUPSStream(1000, 64, NewRNG(3))
	if len(idx) != 1000 {
		t.Fatal("wrong length")
	}
	hit := make([]bool, 64)
	for _, v := range idx {
		if v < 0 || v >= 64 {
			t.Fatalf("index %d out of range", v)
		}
		hit[v] = true
	}
	covered := 0
	for _, h := range hit {
		if h {
			covered++
		}
	}
	if covered < 60 {
		t.Fatalf("only %d of 64 slots hit", covered)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty table did not panic")
		}
	}()
	GUPSStream(1, 0, NewRNG(1))
}

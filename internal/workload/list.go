package workload

import (
	"fmt"
	"math"
)

// ShuffleMode selects which of Fig. 2's permutations is applied to the
// linked list's traversal order.
type ShuffleMode int

const (
	// NoShuffle visits elements in memory order (the top row of Fig. 2).
	NoShuffle ShuffleMode = iota
	// IntraBlockShuffle randomizes the order of elements within each
	// block; blocks are visited in memory order (middle row of Fig. 2).
	IntraBlockShuffle
	// BlockShuffle randomizes the order in which blocks are visited;
	// elements within a block stay in memory order.
	BlockShuffle
	// FullBlockShuffle randomizes both (bottom row of Fig. 2).
	FullBlockShuffle
)

// ShuffleModes lists the three shuffles the paper plots, plus the ordered
// baseline.
var ShuffleModes = []ShuffleMode{NoShuffle, IntraBlockShuffle, BlockShuffle, FullBlockShuffle}

// String returns the paper's snake_case name for the mode.
func (m ShuffleMode) String() string {
	switch m {
	case NoShuffle:
		return "no_shuffle"
	case IntraBlockShuffle:
		return "intra_block_shuffle"
	case BlockShuffle:
		return "block_shuffle"
	case FullBlockShuffle:
		return "full_block_shuffle"
	default:
		return fmt.Sprintf("ShuffleMode(%d)", int(m))
	}
}

// ParseShuffleMode maps a snake_case name back to its ShuffleMode.
func ParseShuffleMode(name string) (ShuffleMode, error) {
	for _, m := range ShuffleModes {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown shuffle mode %q", name)
}

// VisitList calls visit(i, p) for every element of a block-shuffled linked
// list in traversal order: p is the memory position of the i-th visited
// element. Elements are grouped into blocks of blockSize consecutive memory
// positions (the final block may be short when blockSize does not divide
// n). The rules match Fig. 2: all elements of a block are visited before
// jumping to the next block; IntraBlockShuffle permutes positions within
// each block, BlockShuffle permutes the block visit order, and
// FullBlockShuffle does both. The block order is drawn from rng first,
// then each block's permutation as the walk enters it. The walk holds an
// int32 per block and per element of one block, never the whole order.
func VisitList(n, blockSize int, mode ShuffleMode, rng *RNG, visit func(i, p int)) {
	if n < 0 {
		panic("workload: negative list length")
	}
	if blockSize <= 0 {
		panic("workload: block size must be positive")
	}
	if n > math.MaxInt32 {
		panic("workload: list longer than MaxInt32 elements")
	}
	if n == 0 {
		return
	}
	blockOrder := make([]int32, (n-1)/blockSize+1)
	for b := range blockOrder {
		blockOrder[b] = int32(b)
	}
	if mode == BlockShuffle || mode == FullBlockShuffle {
		rng.Shuffle(len(blockOrder), func(x, y int) {
			blockOrder[x], blockOrder[y] = blockOrder[y], blockOrder[x]
		})
	}
	scratch := make([]int32, min(blockSize, n))
	i := 0
	for _, b := range blockOrder {
		lo := int(b) * blockSize
		block := scratch[:min(lo+blockSize, n)-lo]
		for j := range block {
			block[j] = int32(lo + j)
		}
		if mode == IntraBlockShuffle || mode == FullBlockShuffle {
			rng.Shuffle(len(block), func(x, y int) {
				block[x], block[y] = block[y], block[x]
			})
		}
		for _, p := range block {
			visit(i, int(p))
			i++
		}
	}
}

// GUPSStream returns n pseudo-random table indices in [0, tableSize) — the
// access pattern of the HPCC RandomAccess benchmark the paper contrasts
// with pointer chasing (GUPS lacks data-dependent loads).
func GUPSStream(n, tableSize int, rng *RNG) []int {
	if tableSize <= 0 {
		panic("workload: GUPS table must be non-empty")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(tableSize)
	}
	return idx
}

// Package memsys models the Emu system's partitioned global address space.
//
// Every 8-byte word lives on exactly one nodelet, and the nodelet identity
// is recoverable from the address alone — this is the property that drives
// the Emu execution model: a Gossamer thread that dereferences an address
// owned by another nodelet migrates there. The package provides the four
// allocation disciplines the paper exercises:
//
//   - Local   — the analogue of mw_localmalloc: a contiguous block on one
//     nodelet.
//   - Striped — the analogue of mw_malloc1dlong: word i of the array lives
//     on nodelet i mod N.
//   - Replicated — one private copy of the block per nodelet (used for the
//     SpMV input vector x).
//   - Blocked — the paper's custom two-stage "2D" allocation: a
//     caller-specified number of words on each nodelet, contiguous per
//     nodelet.
//
// The space also stores data functionally, so simulated kernels compute
// real results that tests can verify against reference implementations.
package memsys

import "fmt"

// WordBytes is the memory access granularity of the Emu model: every load
// and store moves one 8-byte word, matching the paper's "8-byte word can be
// transferred in a single burst" NCDRAM description.
const WordBytes = 8

// Addr identifies one word in the global address space. The high byte holds
// the nodelet number and the low 56 bits hold the word offset within that
// nodelet's heap, mirroring how real Emu addresses encode locality in the
// upper bits.
type Addr uint64

const (
	offsetBits = 56
	offsetMask = (uint64(1) << offsetBits) - 1

	// MaxNodelets is the largest system the address encoding supports;
	// the full Emu Chick is 64 nodelets (8 nodes x 8 nodelets).
	MaxNodelets = 256
)

// NewAddr builds the address of word number offset on the given nodelet.
func NewAddr(nodelet int, offset uint64) Addr {
	if uint(nodelet) >= MaxNodelets || offset > offsetMask {
		badAddr(nodelet, offset)
	}
	return Addr(uint64(nodelet)<<offsetBits | offset)
}

// badAddr reports an unencodable address component, factored out of NewAddr
// so the valid path inlines into the allocation accessors.
func badAddr(nodelet int, offset uint64) {
	if nodelet < 0 || nodelet >= MaxNodelets {
		panic(fmt.Sprintf("memsys: nodelet %d out of range", nodelet))
	}
	panic(fmt.Sprintf("memsys: offset %d overflows address encoding", offset))
}

// Nodelet reports which nodelet owns the addressed word.
func (a Addr) Nodelet() int { return int(uint64(a) >> offsetBits) }

// Offset reports the word offset within the owning nodelet's heap.
func (a Addr) Offset() uint64 { return uint64(a) & offsetMask }

// Plus returns the address n words after a on the same nodelet.
func (a Addr) Plus(n int) Addr {
	return NewAddr(a.Nodelet(), a.Offset()+uint64(n))
}

// String renders the address as nodelet:offset.
func (a Addr) String() string {
	return fmt.Sprintf("n%d:%#x", a.Nodelet(), a.Offset())
}

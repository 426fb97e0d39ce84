package memsys

import "fmt"

// Space is the global address space of one simulated Emu system: an
// independently growing word heap per nodelet plus a bump allocator.
// Allocation never frees (the benchmarks in the paper are single-phase),
// which keeps placement trivially deterministic.
type Space struct {
	heaps [][]uint64
}

// NewSpace returns an empty address space spanning the given nodelet count.
func NewSpace(nodelets int) *Space {
	if nodelets <= 0 || nodelets > MaxNodelets {
		panic(fmt.Sprintf("memsys: nodelet count %d out of range", nodelets))
	}
	return &Space{heaps: make([][]uint64, nodelets)}
}

// Nodelets reports the number of nodelets the space spans.
func (s *Space) Nodelets() int { return len(s.heaps) }

// HeapWords reports how many words are allocated on the given nodelet.
func (s *Space) HeapWords(nodelet int) int { return len(s.heaps[nodelet]) }

// TotalWords reports the number of allocated words across all nodelets.
func (s *Space) TotalWords() int {
	total := 0
	for _, h := range s.heaps {
		total += len(h)
	}
	return total
}

// allocWords reserves words contiguous words on a nodelet and returns the
// base word offset.
func (s *Space) allocWords(nodelet, words int) uint64 {
	if nodelet < 0 || nodelet >= len(s.heaps) {
		panic(fmt.Sprintf("memsys: alloc on nodelet %d of %d", nodelet, len(s.heaps)))
	}
	if words < 0 {
		panic("memsys: negative allocation")
	}
	base := uint64(len(s.heaps[nodelet]))
	s.heaps[nodelet] = append(s.heaps[nodelet], make([]uint64, words)...)
	return base
}

// Read returns the word at a. Reading unallocated memory is a bug in the
// simulated program and panics.
func (s *Space) Read(a Addr) uint64 {
	nl, off := a.Nodelet(), a.Offset()
	if nl >= len(s.heaps) || off >= uint64(len(s.heaps[nl])) {
		badAccess("read", a)
	}
	return s.heaps[nl][off]
}

// Write stores v at a. Writing unallocated memory panics.
func (s *Space) Write(a Addr, v uint64) {
	nl, off := a.Nodelet(), a.Offset()
	if nl >= len(s.heaps) || off >= uint64(len(s.heaps[nl])) {
		badAccess("write", a)
	}
	s.heaps[nl][off] = v
}

// badAccess reports an out-of-bounds access. Factored out of Read/Write so
// their bodies fit the inlining budget (the message formatting would
// otherwise keep two single-expression accessors out of line).
func badAccess(op string, a Addr) {
	panic(fmt.Sprintf("memsys: %s of unallocated address %v", op, a))
}

// Valid reports whether a refers to an allocated word.
func (s *Space) Valid(a Addr) bool {
	nl, off := a.Nodelet(), a.Offset()
	return nl < len(s.heaps) && off < uint64(len(s.heaps[nl]))
}

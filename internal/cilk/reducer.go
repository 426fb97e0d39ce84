package cilk

import (
	"emuchick/internal/machine"
	"emuchick/internal/memsys"
)

// SumReducer is the migratory-thread analogue of a Cilk sum reducer — a
// feature the paper notes was "in progress" for the Emu toolchain
// (section III-A). Each nodelet owns a private partial-sum cell, workers
// accumulate into the cell of whatever nodelet they currently occupy using
// memory-side atomics (local, contention-free across nodelets, and never
// causing a migration), and Reduce gathers the partials with remote
// atomics, again without migrating.
type SumReducer struct {
	cells memsys.Replicated
}

// NewSumReducer allocates one partial-sum cell per nodelet. It must be
// called before System.Run (allocation is a setup-time operation).
func NewSumReducer(sys *machine.System) *SumReducer {
	return &SumReducer{cells: sys.Mem.AllocReplicated(1)}
}

// Add accumulates v into the calling threadlet's resident nodelet's cell
// with a posted memory-side add; parked=true means the enclosing Step must
// return, and the add is complete when it is re-entered.
func (r *SumReducer) Add(t *machine.CThread, v uint64) (parked bool) {
	return t.CRemoteAdd(r.cells.At(t.Nodelet(), 0), v)
}

// Reduce prepares the gather of every nodelet's partial. The reads use
// blocking memory-side atomics (FetchAdd of zero), so the reducing threadlet
// stays put. It must only be driven after all Adds have been joined (e.g.
// after a sync).
func (r *SumReducer) Reduce() *Reduction { return &Reduction{r: r} }

// Reduction is a gather in progress and a Driver: once Drive reports
// parked=false, Total holds the sum of the partials.
type Reduction struct {
	r      *SumReducer
	nl     int
	issued bool
	total  uint64
}

// Drive advances the gather; see Driver for the protocol.
func (g *Reduction) Drive(t *machine.CThread) (parked bool) {
	for g.nl < t.System().Nodelets() {
		if !g.issued {
			g.issued = true
			if t.CFetchAdd(g.r.cells.At(g.nl, 0), 0) {
				return true
			}
		}
		g.total += t.Value()
		g.issued = false
		g.nl++
	}
	return false
}

// Total reports the gathered sum once Drive has finished.
func (g *Reduction) Total() uint64 { return g.total }

// Value functionally reads the current total without simulated time — a
// verification helper, not part of the machine model.
func (r *SumReducer) Value(sys *machine.System) uint64 {
	var total uint64
	for nl := 0; nl < sys.Nodelets(); nl++ {
		total += sys.Mem.Read(r.cells.At(nl, 0))
	}
	return total
}

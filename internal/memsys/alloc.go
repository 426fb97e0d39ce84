package memsys

import "fmt"

// Local is a contiguous allocation on a single nodelet — the analogue of
// the Emu intrinsic mw_localmalloc. Every element shares one home nodelet,
// so any thread using it from elsewhere migrates there (the paper's "local"
// SpMV layout, which serializes behind one memory channel).
type Local struct {
	base  Addr
	words int
}

// AllocLocal reserves words contiguous words on the given nodelet.
func (s *Space) AllocLocal(nodelet, words int) Local {
	off := s.allocWords(nodelet, words)
	return Local{base: NewAddr(nodelet, off), words: words}
}

// Len reports the element count.
func (l Local) Len() int { return l.words }

// Nodelet reports the home nodelet.
func (l Local) Nodelet() int { return l.base.Nodelet() }

// At returns the address of element i.
func (l Local) At(i int) Addr {
	if uint(i) >= uint(l.words) {
		badIndex("Local", i, l.words)
	}
	return l.base.Plus(i)
}

// badIndex reports an out-of-range element access, factored out of the At
// accessors so their index math inlines into kernel loops.
func badIndex(kind string, i, n int) {
	panic(fmt.Sprintf("memsys: %s index %d out of %d", kind, i, n))
}

// Striped is a word-granularity round-robin allocation across all nodelets —
// the analogue of mw_malloc1dlong. Element i lives on nodelet i mod N,
// which is what makes naive traversals migrate on every element (the
// paper's "1D" SpMV layout) and what lets STREAM workers pick an
// all-local stride.
type Striped struct {
	bases []Addr // per-nodelet base of this allocation's slab
	words int
}

// AllocStriped reserves words elements striped word-by-word across the
// space's nodelets.
func (s *Space) AllocStriped(words int) Striped {
	if words < 0 {
		panic("memsys: negative allocation")
	}
	n := s.Nodelets()
	bases := make([]Addr, n)
	for nl := 0; nl < n; nl++ {
		// Nodelet nl holds elements nl, nl+n, nl+2n, ...
		per := (words - nl + n - 1) / n
		if per < 0 {
			per = 0
		}
		off := s.allocWords(nl, per)
		bases[nl] = NewAddr(nl, off)
	}
	return Striped{bases: bases, words: words}
}

// Len reports the element count.
func (st Striped) Len() int { return st.words }

// Nodelets reports how many nodelets the stripe spans.
func (st Striped) Nodelets() int { return len(st.bases) }

// At returns the address of element i: nodelet i mod N, slot i div N.
func (st Striped) At(i int) Addr {
	if uint(i) >= uint(st.words) {
		badIndex("Striped", i, st.words)
	}
	n := len(st.bases)
	return st.bases[i%n].Plus(i / n)
}

// NodeletOf reports which nodelet owns element i without building the Addr.
func (st Striped) NodeletOf(i int) int { return i % len(st.bases) }

// Replicated is one private copy of a block per nodelet, the discipline the
// paper recommends ("using replicated allocations for commonly used inputs
// like the vector x in the SpMV benchmark"). Reads are always local; the
// writer must update every copy.
type Replicated struct {
	copies []Local
	words  int
}

// AllocReplicated reserves an identical words-long block on every nodelet.
func (s *Space) AllocReplicated(words int) Replicated {
	n := s.Nodelets()
	copies := make([]Local, n)
	for nl := 0; nl < n; nl++ {
		copies[nl] = s.AllocLocal(nl, words)
	}
	return Replicated{copies: copies, words: words}
}

// Len reports the per-copy element count.
func (r Replicated) Len() int { return r.words }

// At returns the address of element i in the copy on the given nodelet.
func (r Replicated) At(nodelet, i int) Addr { return r.copies[nodelet].At(i) }

// Copy returns the Local block holding the given nodelet's replica.
func (r Replicated) Copy(nodelet int) Local { return r.copies[nodelet] }

// Broadcast functionally writes v to element i of every replica. It is a
// zero-time initialization helper; simulated-time replication is the
// kernel's job.
func (r Replicated) Broadcast(s *Space, i int, v uint64) {
	for nl := range r.copies {
		s.Write(r.copies[nl].At(i), v)
	}
}

// Blocked is the paper's custom two-stage "2D" allocation: an explicit,
// possibly unequal number of contiguous words on each nodelet. The SpMV 2D
// layout computes per-nodelet row extents first and then allocates each
// nodelet's shard, so that a thread working on one row never migrates
// mid-row.
type Blocked struct {
	chunks []Local
}

// AllocBlocked reserves perNodeletWords[nl] contiguous words on nodelet nl.
// The slice length must equal the space's nodelet count.
func (s *Space) AllocBlocked(perNodeletWords []int) Blocked {
	if len(perNodeletWords) != s.Nodelets() {
		panic(fmt.Sprintf("memsys: AllocBlocked got %d sizes for %d nodelets",
			len(perNodeletWords), s.Nodelets()))
	}
	chunks := make([]Local, len(perNodeletWords))
	for nl, w := range perNodeletWords {
		chunks[nl] = s.AllocLocal(nl, w)
	}
	return Blocked{chunks: chunks}
}

// Chunk returns the contiguous shard on the given nodelet.
func (b Blocked) Chunk(nodelet int) Local { return b.chunks[nodelet] }

// At returns the address of element i within nodelet nl's shard.
func (b Blocked) At(nodelet, i int) Addr { return b.chunks[nodelet].At(i) }

// TotalLen reports the summed element count across shards.
func (b Blocked) TotalLen() int {
	total := 0
	for _, c := range b.chunks {
		total += c.Len()
	}
	return total
}

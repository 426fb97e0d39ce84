package xeon

// cache is a set-associative cache with true-LRU replacement, keyed by line
// number. It tracks presence only — data is carried functionally by the
// kernels — which is all a timing model needs.
//
// Each set keeps its ways in recency order, most recent first, so one scan
// (find) both probes for a line and picks the way a fill takes: the first
// empty way, else the last, least recently used, way. That is exact LRU
// because no way is ever invalidated: the empty ways are always a suffix of
// the set.
//
// A way is one word: 0 is an empty way, and a resident line is stored as
// (line+1)<<1 | dirty. So a 16-way set fills one 64-byte host cache line,
// and a line must lie in [0, maxLine].
type cache struct {
	sets    int
	setMask int64 // sets-1 when sets is a power of two, else -1
	assoc   int
	ways    []uint32 // sets*assoc words, each set most recent first
	tick    uint64   // recency updates (hits, refreshes and fills)
	hits    uint64
	misses  uint64
	inserts uint64
}

// maxLine is the largest line a way can hold, since (maxLine+1)<<1 | 1 is
// the largest uint32: 128 GiB of model address space at 64-byte lines.
const (
	maxLine  = 1<<31 - 2
	dirtyBit = 1 // the way bit that marks a modified line
)

// newCache builds a cache of the given total size in lines.
func newCache(totalBytes, lineBytes, assoc int) *cache {
	lines := totalBytes / lineBytes
	sets := lines / assoc
	if sets < 1 {
		sets = 1
	}
	c := &cache{
		sets:    sets,
		setMask: -1,
		assoc:   assoc,
		ways:    make([]uint32, sets*assoc),
	}
	if sets&(sets-1) == 0 {
		c.setMask = int64(sets - 1)
	}
	return c
}

// setOf maps a line to its set index. A power-of-two set count reduces the
// modulus to a mask; other set counts, which include both L3 geometries,
// take the division form.
func (c *cache) setOf(line int64) int {
	if c.setMask >= 0 {
		return int(line & c.setMask)
	}
	return int(uint32(line) % uint32(c.sets))
}

// find scans line's set once. It returns the set's first index and either
// the way holding line (hit) or the way a fill of line takes.
func (c *cache) find(line int64) (base, w int, hit bool) {
	base = c.setOf(line) * c.assoc
	key := uint32(line+1) << 1
	for w, way := range c.ways[base : base+c.assoc] {
		if way&^dirtyBit == key {
			return base, w, true
		}
		if way == 0 {
			return base, w, false
		}
	}
	return base, c.assoc - 1, false
}

// rotate moves ways [0, w) of the set at base one way back, freeing way 0,
// and returns what way w held.
func (c *cache) rotate(base, w int) uint32 {
	ways := c.ways[base : base+w+1]
	way := ways[w]
	copy(ways[1:], ways[:w])
	c.tick++
	return way
}

// promote makes the line at way w of the set at base its most recent.
func (c *cache) promote(base, w int) {
	c.ways[base] = c.rotate(base, w)
}

// fill puts line, clean, in the set at base as its most recent, evicting
// way w (as chosen by find), and reports the evicted line and whether it
// was dirty (needing writeback); an empty way evicts line -1, clean.
func (c *cache) fill(base, w int, line int64) (evicted int64, wasDirty bool) {
	way := c.rotate(base, w)
	c.ways[base] = uint32(line+1) << 1
	c.inserts++
	return int64(way>>1) - 1, way&dirtyBit != 0
}

// lookup probes for line, counting a hit or a miss. A hit makes the line
// the most recent of its set, at way 0; a miss returns the way a fill
// takes.
func (c *cache) lookup(line int64) (base, w int, hit bool) {
	base, w, hit = c.find(line)
	if !hit {
		c.misses++
		return base, w, false
	}
	c.hits++
	c.promote(base, w)
	return base, 0, true
}

// markDirty flags line as modified if it is resident, without changing its
// recency, and reports whether it was.
func (c *cache) markDirty(line int64) bool {
	base, w, hit := c.find(line)
	if hit {
		c.ways[base+w] |= dirtyBit
	}
	return hit
}

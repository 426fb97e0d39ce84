package xeon

// cache is a set-associative cache with true-LRU replacement, keyed by line
// number. It tracks presence only — data is carried functionally by the
// kernels — which is all a timing model needs.
//
// Each set keeps its ways in recency order, most recent first, so one scan
// (find) both probes for a line and picks the way a fill takes: the first
// empty way, else the last, least recently used, way. That is exact LRU
// because no way is ever invalidated: the empty ways are always a suffix of
// the set. Line -1 marks an empty way and is never a valid line.
type cache struct {
	sets    int
	setMask int64 // sets-1 when sets is a power of two, else -1
	assoc   int
	tags    []int64 // sets*assoc entries, each set most recent first; -1 = empty
	dirty   []bool  // parallel to tags
	tick    uint64  // recency updates (hits, refreshes and fills)
	hits    uint64
	misses  uint64
	inserts uint64
}

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
		tags:    make([]int64, sets*assoc),
		dirty:   make([]bool, sets*assoc),
	}
	if sets&(sets-1) == 0 {
		c.setMask = int64(sets - 1)
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// setOf maps a line to its set index. A power-of-two set count reduces the
// Euclidean modulus to a mask (valid for negative lines too:
// two's-complement AND is the positive residue); other set counts, which
// include both L3 geometries, take the division form.
//
//emu:hotpath probed once per tag lookup/insert
func (c *cache) setOf(line int64) int {
	if c.setMask >= 0 {
		return int(line & c.setMask)
	}
	s := int(line % int64(c.sets))
	if s < 0 {
		s += c.sets
	}
	return s
}

// find scans line's set once. It returns the set's first index and either
// the way holding line (hit) or the way a fill of line takes.
//
//emu:hotpath the one scan of a set per probe
func (c *cache) find(line int64) (base, w int, hit bool) {
	base = c.setOf(line) * c.assoc
	for w, tag := range c.tags[base : base+c.assoc] {
		if tag == line {
			return base, w, true
		}
		if tag == -1 {
			return base, w, false
		}
	}
	return base, c.assoc - 1, false
}

// rotate moves ways [0, w) of the set at base one way back, freeing way 0,
// and returns what way w held.
func (c *cache) rotate(base, w int) (tag int64, dirty bool) {
	tags, dirt := c.tags[base:base+w+1], c.dirty[base:base+w+1]
	tag, dirty = tags[w], dirt[w]
	for i := w; i > 0; i-- {
		tags[i], dirt[i] = tags[i-1], dirt[i-1]
	}
	c.tick++
	return tag, dirty
}

// promote makes the line at way w of the set at base its most recent.
func (c *cache) promote(base, w int) {
	c.tags[base], c.dirty[base] = c.rotate(base, w)
}

// fill puts line, clean, in the set at base as its most recent, evicting
// way w (as chosen by find), and reports the evicted line and whether it
// was dirty (needing writeback); an empty way evicts line -1, clean.
func (c *cache) fill(base, w int, line int64) (evicted int64, wasDirty bool) {
	evicted, wasDirty = c.rotate(base, w)
	c.tags[base], c.dirty[base] = line, false
	c.inserts++
	return evicted, wasDirty
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
		c.dirty[base+w] = true
	}
	return hit
}

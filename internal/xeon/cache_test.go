package xeon

import (
	"sort"
	"testing"
	"testing/quick"
)

// contains probes for line without updating recency or statistics.
func (c *cache) contains(line int64) bool {
	_, _, hit := c.find(line)
	return hit
}

// insert fills line unless it is present, in which case it only becomes
// the most recent of its set (evicting nothing).
func (c *cache) insert(line int64) (evicted int64, wasDirty bool) {
	base, w, hit := c.find(line)
	if hit {
		c.promote(base, w)
		return -1, false
	}
	return c.fill(base, w, line)
}

// lines reports the cache's capacity in lines.
func (c *cache) lines() int { return c.sets * c.assoc }

// resident counts valid lines.
func (c *cache) resident() int {
	n := 0
	for _, way := range c.ways {
		if way != 0 {
			n++
		}
	}
	return n
}

func TestCacheHitAfterInsert(t *testing.T) {
	c := newCache(1024, 64, 4) // 16 lines, 4 sets
	if _, _, hit := c.lookup(5); hit {
		t.Fatal("hit in empty cache")
	}
	c.insert(5)
	if _, _, hit := c.lookup(5); !hit {
		t.Fatal("miss after insert")
	}
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.hits, c.misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(4*64, 64, 4) // one set of 4 ways
	for line := int64(0); line < 4; line++ {
		c.insert(line * 1) // all map to set 0 (sets=1)
	}
	c.lookup(0) // refresh line 0 -> line 1 is now LRU
	c.insert(100)
	if !c.contains(0) {
		t.Fatal("recently used line evicted")
	}
	if c.contains(1) {
		t.Fatal("LRU line survived")
	}
	if !c.contains(100) {
		t.Fatal("inserted line absent")
	}
}

func TestCacheInsertExistingRefreshes(t *testing.T) {
	c := newCache(4*64, 64, 4)
	for line := int64(0); line < 4; line++ {
		c.insert(line)
	}
	c.insert(0) // refresh, not duplicate
	c.insert(50)
	if c.contains(1) {
		t.Fatal("line 1 should be the eviction victim")
	}
	if !c.contains(0) {
		t.Fatal("refreshed line evicted")
	}
	// No duplicates: resident count equals capacity.
	if c.resident() != 4 {
		t.Fatalf("resident = %d", c.resident())
	}
}

func TestCacheSetIsolation(t *testing.T) {
	c := newCache(2*2*64, 64, 2) // 2 sets x 2 ways
	// Lines 0,2,4,6 map to set 0; lines 1,3 to set 1.
	c.insert(0)
	c.insert(2)
	c.insert(4) // evicts 0 from set 0
	if c.contains(0) {
		t.Fatal("set-0 eviction missing")
	}
	c.insert(1)
	if !c.contains(1) || !c.contains(2) || !c.contains(4) {
		t.Fatal("set isolation broken")
	}
}

// Property: the cache never holds more distinct lines than its capacity,
// and a just-inserted line is always resident.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := newCache(8*64, 64, 2) // 8 lines
		for _, l := range lines {
			c.insert(int64(l))
			if !c.contains(int64(l)) {
				return false
			}
			if c.resident() > c.lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refCache is the reference LRU cache the recency-ordered cache replaced:
// each way carries the tick of its last use, and a fill takes the first
// empty way, else the way with the smallest stamp. FuzzCacheLRU holds the
// cache to it.
type refCache struct {
	sets, assoc int
	tags        []int64 // -1 = invalid
	stamps      []uint64
	dirty       []bool
	tick        uint64
	hits        uint64
	misses      uint64
	inserts     uint64
}

func newRefCache(sets, assoc int) *refCache {
	r := &refCache{
		sets: sets, assoc: assoc,
		tags:   make([]int64, sets*assoc),
		stamps: make([]uint64, sets*assoc),
		dirty:  make([]bool, sets*assoc),
	}
	for i := range r.tags {
		r.tags[i] = -1
	}
	return r
}

func (r *refCache) base(line int64) int {
	n := int64(r.sets)
	return int((line%n+n)%n) * r.assoc
}

func (r *refCache) lookup(line int64) bool {
	base := r.base(line)
	for w := 0; w < r.assoc; w++ {
		if r.tags[base+w] == line {
			r.tick++
			r.stamps[base+w] = r.tick
			r.hits++
			return true
		}
	}
	r.misses++
	return false
}

func (r *refCache) contains(line int64) bool {
	base := r.base(line)
	for w := 0; w < r.assoc; w++ {
		if r.tags[base+w] == line {
			return true
		}
	}
	return false
}

func (r *refCache) markDirty(line int64) bool {
	base := r.base(line)
	for w := 0; w < r.assoc; w++ {
		if r.tags[base+w] == line {
			r.dirty[base+w] = true
			return true
		}
	}
	return false
}

func (r *refCache) insert(line int64) (evicted int64, wasDirty bool) {
	base := r.base(line)
	victim := base
	for w := 0; w < r.assoc; w++ {
		i := base + w
		if r.tags[i] == line {
			r.tick++
			r.stamps[i] = r.tick
			return -1, false
		}
		if r.tags[i] == -1 {
			victim = i
			break
		}
		if r.stamps[i] < r.stamps[victim] {
			victim = i
		}
	}
	evicted, wasDirty = r.tags[victim], r.dirty[victim]
	r.tick++
	r.tags[victim] = line
	r.stamps[victim] = r.tick
	r.dirty[victim] = false
	r.inserts++
	if evicted == -1 {
		return -1, false
	}
	return evicted, wasDirty
}

// recency lists set s of the reference most recent first, with dirty flags.
func (r *refCache) recency(s int) (tags []int64, dirty []bool) {
	ways := make([]int, 0, r.assoc)
	for w := 0; w < r.assoc; w++ {
		if r.tags[s*r.assoc+w] != -1 {
			ways = append(ways, s*r.assoc+w)
		}
	}
	sort.Slice(ways, func(a, b int) bool { return r.stamps[ways[a]] > r.stamps[ways[b]] })
	for _, i := range ways {
		tags, dirty = append(tags, r.tags[i]), append(dirty, r.dirty[i])
	}
	return tags, dirty
}

// fuzzGeometries are the cache shapes FuzzCacheLRU draws from: power-of-two
// and other set counts, direct-mapped through 16-way.
var fuzzGeometries = []struct{ sets, assoc int }{
	{1, 1}, {1, 16}, {4, 1}, {4, 16}, {3, 1}, {3, 16}, {5, 4}, {8, 2},
}

// FuzzCacheLRU drives one stream of operations through the cache and the
// reference: every two bytes are an operation (lookup, insert, contains,
// markDirty, or the model's access — a lookup whose miss fills the way
// the lookup found) and a line. After each operation the results, the
// evicted line and its dirty flag, the hit, miss, insert and tick
// counters, and every set's lines in recency order must agree.
func FuzzCacheLRU(f *testing.F) {
	f.Fuzz(func(t *testing.T, geometry uint8, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		g := fuzzGeometries[int(geometry)%len(fuzzGeometries)]
		c := newCache(g.sets*g.assoc*64, 64, g.assoc)
		ref := newRefCache(g.sets, g.assoc)
		for i := 0; i+1 < len(ops); i += 2 {
			kind, b := ops[i], ops[i+1]
			line := int64(b) // 0..255
			if kind&0x80 == 0 {
				line >>= 3 // 0..31: a working set near capacity
			}
			var got, want struct {
				hit     bool
				evicted int64
				dirty   bool
			}
			switch kind % 5 {
			case 0:
				_, _, got.hit = c.lookup(line)
				want.hit = ref.lookup(line)
			case 1:
				got.evicted, got.dirty = c.insert(line)
				want.evicted, want.dirty = ref.insert(line)
			case 2:
				got.hit, want.hit = c.contains(line), ref.contains(line)
			case 3:
				got.hit, want.hit = c.markDirty(line), ref.markDirty(line)
			case 4:
				var base, w int
				if base, w, got.hit = c.lookup(line); !got.hit {
					got.evicted, got.dirty = c.fill(base, w, line)
				}
				if want.hit = ref.lookup(line); !want.hit {
					want.evicted, want.dirty = ref.insert(line)
				}
			}
			if got != want {
				t.Fatalf("op %d (kind %d, line %d) on %d sets x %d ways: got %+v, want %+v",
					i/2, kind%5, line, g.sets, g.assoc, got, want)
			}
			if c.hits != ref.hits || c.misses != ref.misses || c.inserts != ref.inserts || c.tick != ref.tick {
				t.Fatalf("op %d: counters hits/misses/inserts/tick %d/%d/%d/%d, want %d/%d/%d/%d", i/2,
					c.hits, c.misses, c.inserts, c.tick, ref.hits, ref.misses, ref.inserts, ref.tick)
			}
			for s := 0; s < g.sets; s++ {
				tags, dirty := ref.recency(s)
				for w := 0; w < g.assoc; w++ {
					way := c.ways[s*g.assoc+w]
					gotTag, gotDirty, wantTag, wantDirty := int64(way>>1)-1, way&dirtyBit != 0, int64(-1), false
					if w < len(tags) {
						wantTag, wantDirty = tags[w], dirty[w]
					}
					if gotTag != wantTag || gotDirty != wantDirty {
						t.Fatalf("op %d: set %d way %d holds %d (dirty %v), want %d (dirty %v)",
							i/2, s, w, gotTag, gotDirty, wantTag, wantDirty)
					}
				}
			}
		}
	})
}

package xeon

import "testing"

// Per-layer benchmarks for the Xeon model: the cache tag path, the DRAM
// row-buffer path, and the thread access path through the continuation
// engine. Each reports a deterministic work counter next to ns/op, so a
// change in a figure's cost splits into "more work" (the counter moved) or
// "slower work" (only ns/op moved).

func BenchmarkCacheLookupHit(b *testing.B) {
	c := newCache(256<<10, 64, 8)
	for line := int64(0); line < 1024; line++ {
		c.insert(line)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.lookup(int64(i) & 1023)
	}
	b.ReportMetric(float64(c.hits)/float64(b.N), "hits/op")
}

func BenchmarkCacheInsertEvict(b *testing.B) {
	c := newCache(256<<10, 64, 8)
	for i := 0; i < b.N; i++ {
		c.insert(int64(i)) // a new line every time: LRU eviction once full
	}
	b.ReportMetric(float64(c.inserts)/float64(b.N), "inserts/op")
}

// benchmarkDRAM fetches line(i) per op after a warm-up fetch of line(0),
// reporting the fraction of timed fetches that hit an open row.
func benchmarkDRAM(b *testing.B, line func(i int64) int64) {
	cfg := SandyBridgeXeon()
	d := newDRAM(&cfg)
	for i := int64(0); i < int64(cfg.Channels); i++ {
		d.fetch(0, line(i))
	}
	d.rowHits = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.fetch(0, line(int64(i)))
	}
	b.ReportMetric(float64(d.rowHits)/float64(b.N), "rowhits/op")
}

// BenchmarkDRAMRowHit cycles through the first row of every channel:
// after the warm-up, every fetch finds its row open.
func BenchmarkDRAMRowHit(b *testing.B) {
	cfg := SandyBridgeXeon()
	rowLines := int64(cfg.Channels * cfg.RowBytes / cfg.LineBytes)
	benchmarkDRAM(b, func(i int64) int64 { return i % rowLines })
}

// BenchmarkDRAMRowMiss strides a full row per bank, so every fetch lands on
// channel 0, bank 0, in a new row.
func BenchmarkDRAMRowMiss(b *testing.B) {
	cfg := SandyBridgeXeon()
	stride := int64(cfg.Channels * cfg.BanksPerChannel * cfg.RowBytes / cfg.LineBytes)
	benchmarkDRAM(b, func(i int64) int64 { return (i + 1) * stride })
}

// BenchmarkThreadRMW runs the golden suite's rmw/tiny scenario — 40
// workers on 32 hardware threads doing read-modify-writes through 16-line
// caches, nearly every access a park — as one full run per op.
func BenchmarkThreadRMW(b *testing.B) {
	var sc goldenScenario
	for _, c := range goldenScenarios() {
		if c.name == "rmw/tiny" {
			sc = c
		}
	}
	var events uint64
	for i := 0; i < b.N; i++ {
		s := NewSystem(sc.cfg)
		if _, err := runScenario(s, s.Alloc(4<<20), sc.prog, nil); err != nil {
			b.Fatal(err)
		}
		events = s.Eng.Fired()
	}
	b.ReportMetric(float64(events), "events/op")
}

// randomReads is a thread body issuing n 16-byte reads of random elements
// of a list at base.
type randomReads struct {
	base, elems int64
	n           int
	g           lcg
}

func (r *randomReads) Step(t *CThread) bool {
	for r.n > 0 {
		r.n--
		if t.Read(r.base+r.g.next(r.elems)*16, 16) {
			return false
		}
	}
	return true
}

// BenchmarkThreadChaseL3Miss is fig7's miss path at one thread: each op
// reads one random 16-byte element of a 32 MiB list on the Sandy Bridge
// platform, so nearly every read misses the L2 and about half miss the
// 20 MiB L3, whose 20,480 sets (not a power of two) take the division set
// index. Fix b.N (-benchtime Nx) to compare the counters across builds.
func BenchmarkThreadChaseL3Miss(b *testing.B) {
	const elems = 32 << 20 / 16
	s := NewSystem(SandyBridgeXeon())
	body := &randomReads{base: s.Alloc(elems * 16), elems: elems, n: b.N, g: 1}
	b.ResetTimer()
	if _, err := s.Run(body); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Eng.Fired())/float64(b.N), "events/op")
	b.ReportMetric(float64(s.DRAMLines)/float64(b.N), "lines/op")
}

package xeon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"emuchick/internal/sim"
)

// Golden digests for the CPU thread model. Each scenario is a small thread
// program — reads, writes, streaming stores, compute, spawns and syncs —
// run on one platform configuration. The digest folds in the time and core
// of every completed operation, in the order threads observe them, and the
// platform's whole end state: engine time and event count, every core and
// DRAM channel's queueing statistics, the caches' hit, miss and insert
// counts, and the DRAM row and line counters. The digests were recorded
// from the goroutine-hosted thread the model used to have, so the
// continuation CThread is held to its event order bit for bit.

// gop is one operation of a scenario program: 'r' read, 'w' write, 'n'
// non-temporal write (a and n are the address offset and byte count), 'c'
// compute (n cycles), 's' spawn the child program, 'y' sync.
type gop struct {
	kind  byte
	a, n  int64
	child []gop
}

// goldenDigest accumulates a scenario's observations.
type goldenDigest struct {
	h   hash.Hash
	buf []byte
}

func newGoldenDigest() *goldenDigest { return &goldenDigest{h: sha256.New()} }

func (d *goldenDigest) put(vs ...int64) {
	d.buf = d.buf[:0]
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v))
	}
	d.h.Write(d.buf)
}

func (d *goldenDigest) resource(r *sim.Resource) {
	d.put('Q', int64(r.FreeAt()), int64(r.Ops()), int64(r.BusyTime()), int64(r.TotalWait()), int64(r.MaxWait()))
}

func (d *goldenDigest) cache(c *cache) {
	d.put('C', int64(c.hits), int64(c.misses), int64(c.inserts), int64(c.tick))
}

// sum closes the digest over the platform's end state.
func (d *goldenDigest) sum(s *System, elapsed sim.Time) string {
	d.put('T', int64(elapsed), int64(s.Eng.Now()), int64(s.Eng.Fired()))
	d.put('M', int64(s.DRAMLines), int64(s.WritebackLines), int64(s.NTWriteLines),
		int64(s.mem.rowHits), int64(s.mem.rowMisses), int64(s.mem.linesFetched))
	d.put('A', int64(s.nextHW), s.nextMem, int64(len(s.prefetchReady)))
	for _, r := range s.cores {
		d.resource(r)
	}
	for _, r := range s.mem.channels {
		d.resource(r)
	}
	for _, c := range s.l2 {
		d.cache(c)
	}
	d.cache(s.l3)
	return hex.EncodeToString(d.h.Sum(nil))
}

// lcg is a tiny deterministic generator for scenario addresses.
type lcg uint64

func (g *lcg) next(n int64) int64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return int64(uint64(*g)>>33) % n
}

// streamWorker reads two arrays and streams a third, like STREAM ADD.
func streamWorker(lo, hi int64) []gop {
	var p []gop
	for i := lo; i < hi; i++ {
		p = append(p, gop{kind: 'r', a: i * 8, n: 8}, gop{kind: 'r', a: 1<<20 + i*8, n: 8},
			gop{kind: 'n', a: 2<<20 + i*8, n: 8}, gop{kind: 'c', n: 1})
	}
	return p
}

// rmwWorker performs pseudo-random read-modify-writes over span bytes.
func rmwWorker(seed lcg, count int, span int64) []gop {
	var p []gop
	g := seed
	for i := 0; i < count; i++ {
		a := g.next(span/8) * 8
		p = append(p, gop{kind: 'r', a: a, n: 8}, gop{kind: 'w', a: a, n: 8}, gop{kind: 'c', n: 2})
	}
	return p
}

// chaseWorker reads pseudo-random 16-byte elements with a compute per
// element, like a pointer chase.
func chaseWorker(seed lcg, count int, span int64) []gop {
	var p []gop
	g := seed
	for i := 0; i < count; i++ {
		p = append(p, gop{kind: 'r', a: g.next(span/16) * 16, n: 16}, gop{kind: 'c', n: 4})
	}
	return p
}

type goldenScenario struct {
	name string
	cfg  Config
	prog []gop
}

func goldenScenarios() []goldenScenario {
	sandy, haswell := SandyBridgeXeon(), HaswellXeon()
	tiny := SandyBridgeXeon()
	tiny.L2Bytes, tiny.L2Assoc = 4*64, 2
	tiny.L3Bytes, tiny.L3Assoc = 16*64, 4
	noPrefetch := SandyBridgeXeon()
	noPrefetch.PrefetchDegree = 0
	freeSpawn := HaswellXeon()
	freeSpawn.SpawnOverhead = 0

	// stream: eight workers spawned serially over disjoint slices.
	var stream []gop
	for w := int64(0); w < 8; w++ {
		stream = append(stream, gop{kind: 's', child: streamWorker(w*96, (w+1)*96)})
	}
	stream = append(stream, gop{kind: 'y'})

	// rmw: more workers than hardware threads share one region.
	var rmw []gop
	for w := 0; w < 40; w++ {
		rmw = append(rmw, gop{kind: 's', child: rmwWorker(lcg(w+1), 24, 1<<16)})
	}
	rmw = append(rmw, gop{kind: 'y'}, gop{kind: 'r', a: 0, n: 4096})

	// nested: coordinators spawn, sync, and spawn again; the root leaves
	// its last children to the implicit end-of-thread sync.
	var nested []gop
	for c := 0; c < 3; c++ {
		var coord []gop
		for k := 0; k < 3; k++ {
			coord = append(coord, gop{kind: 's', child: chaseWorker(lcg(10*c+k), 40, 1<<18)})
		}
		coord = append(coord, gop{kind: 'y'}, gop{kind: 'c', n: 100},
			gop{kind: 's', child: chaseWorker(lcg(100+c), 20, 1<<18)})
		nested = append(nested, gop{kind: 's', child: coord}, gop{kind: 'c', n: 7})
	}
	nested = append(nested, gop{kind: 'r', a: 60, n: 200}, gop{kind: 'w', a: 1 << 12, n: 130})

	// mixed: one thread exercising every operation, spanning lines and
	// re-touching streams, with a child running alongside it.
	mixed := []gop{
		{kind: 'c', n: 0}, {kind: 'r', a: 0, n: 0}, {kind: 'n', a: 0, n: 0}, {kind: 'y'},
		{kind: 's', child: chaseWorker(lcg(77), 64, 1<<20)},
	}
	for i := int64(0); i < 64; i++ {
		mixed = append(mixed, gop{kind: 'r', a: i * 64, n: 8}, gop{kind: 'r', a: i * 64, n: 8},
			gop{kind: 'w', a: 1<<16 + i*100, n: 16}, gop{kind: 'n', a: 1<<18 + i*40, n: 40})
	}
	mixed = append(mixed, gop{kind: 'n', a: 1<<18 + 63*40, n: 300}, gop{kind: 'y'}, gop{kind: 'c', n: 1000})

	return []goldenScenario{
		{"stream/sandy", sandy, stream},
		{"stream/noprefetch", noPrefetch, stream},
		{"rmw/sandy", sandy, rmw},
		{"rmw/tiny", tiny, rmw},
		{"nested/haswell", haswell, nested},
		{"nested/freespawn", freeSpawn, nested},
		{"mixed/sandy", sandy, mixed},
		{"mixed/tiny", tiny, mixed},
	}
}

var threadGolden = map[string]string{
	"stream/sandy":      "3fc20b259a56c236df426fe38936821e648f226034e25e213f44cdad2c0fafec",
	"stream/noprefetch": "e6befab909d45b64f56e2ed495172e83139effa7cf56a482ca8ad1f27d2ef01f",
	"rmw/sandy":         "7afab047275618c37a3f0fd8244144011f1d882b3c1fc0ca4a19f62123f4ecde",
	"rmw/tiny":          "5a2a6295a8b5dbf10bc2420a3161ee84c5d4863d26cd33409d00b3392963fee6",
	"nested/haswell":    "e6b55fb4b8bf933e5646f466fddbd02c4e9cb1d34eabb8bf9fbfa96fe86d1521",
	"nested/freespawn":  "2552593bf374f55c3fbfba7b36a546ee7b0ed532beacf9021bd8c3d6f1a83026",
	"mixed/sandy":       "fb3c496905e795b3ecfaa549699830aa1d7484ac3d19386e917cf797254c02d4",
	"mixed/tiny":        "a691ef5bb7e4c41b191d93f89a8c626c40a7892eca99acf61ecae25685ef3605",
}

func TestThreadGoldenDigests(t *testing.T) {
	for _, sc := range goldenScenarios() {
		s := NewSystem(sc.cfg)
		base := s.Alloc(4 << 20)
		d := newGoldenDigest()
		elapsed, err := runScenario(s, base, sc.prog, d)
		if err != nil {
			t.Errorf("%s: %v", sc.name, err)
			continue
		}
		if got, want := d.sum(s, elapsed), threadGolden[sc.name]; got != want {
			t.Errorf("%s: digest drifted\n\t%q: %q,", sc.name, sc.name, got)
		}
	}
}

// runScenario runs prog as the root thread, recording the time and core of
// every completed operation.
func runScenario(s *System, base int64, prog []gop, d *goldenDigest) (sim.Time, error) {
	return s.Run(&progBody{base: base, prog: prog, d: d})
}

// progBody runs a scenario program on a CThread. After each operation
// completes it records the operation, the time and the core in d, if set.
type progBody struct {
	base   int64
	prog   []gop
	d      *goldenDigest
	pc     int
	issued bool // prog[pc-1] was issued and has not been recorded
}

func (b *progBody) Step(t *CThread) bool {
	for {
		if b.issued {
			b.issued = false
			if b.d != nil {
				b.d.put(int64(b.prog[b.pc-1].kind), int64(t.Now()), int64(t.Core()))
			}
		}
		if b.pc == len(b.prog) {
			return true
		}
		o := b.prog[b.pc]
		b.pc++
		b.issued = true
		var parked bool
		switch o.kind {
		case 'r':
			parked = t.Read(b.base+o.a, o.n)
		case 'w':
			parked = t.Write(b.base+o.a, o.n)
		case 'n':
			t.WriteNT(b.base+o.a, o.n)
		case 'c':
			parked = t.Compute(o.n)
		case 's':
			parked = t.Spawn(&progBody{base: b.base, prog: o.child, d: b.d})
		case 'y':
			parked = t.Sync()
		}
		if parked {
			return false
		}
	}
}

package xeon

import (
	"fmt"
	"strings"
	"testing"

	"emuchick/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{SandyBridgeXeon(), HaswellXeon()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", cfg.Name, err)
		}
	}
	bad := SandyBridgeXeon()
	bad.LineBytes = 48 // not a power of two
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "LineBytes") {
		t.Errorf("LineBytes check missing: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ThreadsPerCore = 0 },
		func(c *Config) { c.CoreHz = 0 },
		func(c *Config) { c.L2Bytes = 0 },
		func(c *Config) { c.L3Assoc = 0 },
		func(c *Config) { c.L2Bytes = 100 }, // not divisible into sets
		func(c *Config) { c.L3Bytes = 100 },
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.ChannelBytesPerSec = 0 },
		func(c *Config) { c.RowBytes = 32 }, // smaller than a line
		func(c *Config) { c.BanksPerChannel = 0 },
		func(c *Config) { c.RowHitLatency = 0 },
		func(c *Config) { c.RowHitLatency = 100 * sim.Nanosecond; c.RowMissLatency = 50 * sim.Nanosecond },
		func(c *Config) { c.PrefetchDegree = -1 },
		func(c *Config) { c.SpawnOverhead = -1 },
	}
	for i, mut := range mutations {
		c := SandyBridgeXeon()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSystem with invalid config did not panic")
		}
	}()
	bad2 := SandyBridgeXeon()
	bad2.Cores = 0
	NewSystem(bad2)
}

// script is a test thread body: its functions run in order, each issuing
// at most one operation and returning that operation's parked result.
type script []func(t *CThread) bool

func (s *script) Step(t *CThread) bool {
	for len(*s) > 0 {
		op := (*s)[0]
		*s = (*s)[1:]
		if op(t) {
			return false
		}
	}
	return true
}

// readLines is a program of n 8-byte reads, the i-th at line(i).
func readLines(n int64, line func(i int64) int64) []gop {
	p := make([]gop, n)
	for i := range p {
		p[i] = gop{kind: 'r', a: line(int64(i)) * 64, n: 8}
	}
	return p
}

func sequential(i int64) int64 { return i }

// runProg runs prog as the root thread with addresses relative to base.
func runProg(t *testing.T, s *System, base int64, prog []gop) sim.Time {
	t.Helper()
	elapsed, err := runScenario(s, base, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return elapsed
}

func TestSystemAccessors(t *testing.T) {
	s := NewSystem(SandyBridgeXeon())
	base := s.Alloc(1 << 12)
	body := script{
		func(th *CThread) bool {
			if th.System() != s {
				t.Error("System() wrong")
			}
			return th.Compute(0) // free
		},
		func(th *CThread) bool { return th.Sync() }, // no children: immediate
		func(th *CThread) bool { return th.Read(base, 0) },
	}
	if elapsed, err := s.Run(&body); err != nil || elapsed != 0 {
		t.Fatalf("free operations: elapsed %v, err %v", elapsed, err)
	}
	s = NewSystem(SandyBridgeXeon())
	elapsed := runProg(t, s, s.Alloc(1<<12), readLines(32, sequential))
	if u := s.PeakChannelUtilization(elapsed); u <= 0 {
		t.Fatalf("PeakChannelUtilization = %v", u)
	}
	if r := (&System{mem: newDRAM(&s.Cfg)}).RowHitRatio(); r != 0 {
		t.Fatalf("empty RowHitRatio = %v", r)
	}
}

func TestSandyBridgeNominalBandwidth(t *testing.T) {
	// The paper: four channels at 1600 MHz -> 51.2 GB/s peak theoretical.
	if got := SandyBridgeXeon().PeakMemoryBytesPerSec(); got != 51.2e9 {
		t.Fatalf("Sandy Bridge peak = %g, want 51.2e9", got)
	}
	// Haswell: 85 GB/s per socket, 4 sockets.
	got := HaswellXeon().PeakMemoryBytesPerSec()
	if got < 330e9 || got > 350e9 {
		t.Fatalf("Haswell peak = %g, want ~339.2e9", got)
	}
}

func TestAllocAligned(t *testing.T) {
	s := NewSystem(SandyBridgeXeon())
	a := s.Alloc(100)
	b := s.Alloc(1)
	if a%64 != 0 || b%64 != 0 {
		t.Fatal("allocations not line aligned")
	}
	if b <= a {
		t.Fatal("allocations overlap")
	}
}

func TestCachedReadFasterThanCold(t *testing.T) {
	s := NewSystem(SandyBridgeXeon())
	base := s.Alloc(64)
	var t0, cold, warm sim.Time
	body := script{
		func(th *CThread) bool { t0 = th.Now(); return th.Read(base, 8) },
		func(th *CThread) bool { cold = th.Now() - t0; t0 = th.Now(); return th.Read(base, 8) },
		func(th *CThread) bool { warm = th.Now() - t0; return false },
	}
	if _, err := s.Run(&body); err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Fatalf("cached read (%v) not faster than cold (%v)", warm, cold)
	}
	if warm != s.Cfg.L2Latency {
		t.Fatalf("warm read = %v, want L2 latency %v", warm, s.Cfg.L2Latency)
	}
}

func TestSequentialBeatsRandomViaPrefetch(t *testing.T) {
	const n = 1 << 14 // 16384 lines = 1 MiB
	timeFor := func(pattern func(i int64) int64) sim.Time {
		s := NewSystem(SandyBridgeXeon())
		return runProg(t, s, s.Alloc(n*64), readLines(n, pattern))
	}
	seq := timeFor(sequential)
	// Stride the accesses so lines never repeat and never run
	// sequentially (multiplicative shuffle by an odd constant mod n).
	rnd := timeFor(func(i int64) int64 { return (i * 2654435761) & (n - 1) })
	if seq*2 >= rnd {
		t.Fatalf("prefetcher ineffective: sequential %v vs random %v", seq, rnd)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	s := NewSystem(cfg)
	runProg(t, s, s.Alloc(1<<20), readLines(64, sequential))
	// Exactly the 64 demand lines, no prefetches.
	if s.DRAMLines != 64 {
		t.Fatalf("DRAMLines = %d, want 64", s.DRAMLines)
	}
}

func TestAccessSpanningTwoLines(t *testing.T) {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	s := NewSystem(cfg)
	runProg(t, s, s.Alloc(128), []gop{{kind: 'r', a: 60, n: 8}}) // crosses the line boundary
	if s.DRAMLines != 2 {
		t.Fatalf("DRAMLines = %d, want 2", s.DRAMLines)
	}
}

// TestAccessOutsideLineRange: a cache way holds lines 0 through maxLine
// only, so a read, write or streaming store that reaches outside them
// panics and names its address. The range's last lines read normally, and
// a stream that runs into its end prefetches nothing past it.
func TestAccessOutsideLineRange(t *testing.T) {
	lb := int64(SandyBridgeXeon().LineBytes)
	end := (maxLine + 1) * lb // the first address past the range
	for _, addr := range []int64{-16, -1 << 40, end, end - 8, 1 << 62} {
		for _, kind := range []byte{'r', 'w', 'n'} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				runScenario(NewSystem(SandyBridgeXeon()), 0, []gop{{kind: kind, a: addr, n: 16}}, nil)
				return ""
			}()
			if want := fmt.Sprintf("address %#x", addr); !strings.Contains(msg, want) {
				t.Errorf("%c of 16 bytes at %#x: panic %q, want one naming %q", kind, addr, msg, want)
			}
		}
	}
	s := NewSystem(SandyBridgeXeon())
	runProg(t, s, 0, readLines(4, func(i int64) int64 { return maxLine - 3 + i }))
	if s.DRAMLines != 4 {
		t.Fatalf("reading the last 4 lines fetched %d lines, want 4", s.DRAMLines)
	}
}

func TestSpawnSyncAndCorePlacement(t *testing.T) {
	s := NewSystem(SandyBridgeXeon())
	cores := map[int]bool{}
	var root script
	for i := 0; i < 16; i++ {
		root = append(root, func(th *CThread) bool {
			return th.Spawn(&script{func(c *CThread) bool {
				cores[c.Core()] = true
				return c.Compute(1000)
			}})
		})
	}
	root = append(root, func(th *CThread) bool { return th.Sync() })
	if _, err := s.Run(&root); err != nil {
		t.Fatal(err)
	}
	// Root takes core 0; 16 children must cover many distinct cores.
	if len(cores) < 12 {
		t.Fatalf("children placed on only %d cores", len(cores))
	}
}

func TestComputeParallelSpeedup(t *testing.T) {
	elapsedFor := func(workers int) sim.Time {
		var prog []gop
		for w := 0; w < workers; w++ {
			prog = append(prog, gop{kind: 's', child: []gop{{kind: 'c', n: 2_600_000}}}) // 1 ms each
		}
		return runProg(t, NewSystem(SandyBridgeXeon()), 0, append(prog, gop{kind: 'y'}))
	}
	one := elapsedFor(1)
	eight := elapsedFor(8)
	if eight > one*3/2 {
		t.Fatalf("8 workers on 16 cores should run ~concurrently: 1->%v 8->%v", one, eight)
	}
}

func TestWriteWalksHierarchy(t *testing.T) {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	s := NewSystem(cfg)
	base := s.Alloc(64)
	var t0 sim.Time
	body := script{
		func(th *CThread) bool { return th.Write(base, 8) },
		func(th *CThread) bool { t0 = th.Now(); return th.Read(base, 8) }, // allocated by the write
		func(th *CThread) bool {
			if th.Now()-t0 != s.Cfg.L2Latency {
				t.Errorf("read after write not an L2 hit")
			}
			return false
		},
	}
	if _, err := s.Run(&body); err != nil {
		t.Fatal(err)
	}
}

// tinyCaches is a prefetch-free Sandy Bridge with a 2-line L2 and a 4-line
// L3, so evictions happen quickly.
func tinyCaches() Config {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	cfg.L2Bytes = 2 * 64
	cfg.L2Assoc = 1
	cfg.L3Bytes = 4 * 64
	cfg.L3Assoc = 1
	return cfg
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	s := NewSystem(tinyCaches())
	// Dirty many distinct lines; they must eventually wash out of the
	// 4-line L3 as writebacks.
	prog := readLines(64, sequential)
	for i := range prog {
		prog[i].kind = 'w'
	}
	runProg(t, s, s.Alloc(1<<16), prog)
	if s.WritebackLines == 0 {
		t.Fatal("no writebacks recorded")
	}
	if s.WritebackLines > s.DRAMLines {
		t.Fatalf("writebacks (%d) exceed fetches (%d)", s.WritebackLines, s.DRAMLines)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	s := NewSystem(tinyCaches())
	runProg(t, s, s.Alloc(1<<16), readLines(64, sequential))
	if s.WritebackLines != 0 {
		t.Fatalf("clean lines wrote back %d times", s.WritebackLines)
	}
}

func TestXeonDeterminism(t *testing.T) {
	trial := func() (sim.Time, uint64) {
		s := NewSystem(SandyBridgeXeon())
		base := s.Alloc(1 << 16)
		var prog []gop
		for w := int64(0); w < 4; w++ {
			var child []gop
			for i := int64(0); i < 256; i++ {
				child = append(child, gop{kind: 'r', a: (i*4 + w) * 64, n: 16})
			}
			prog = append(prog, gop{kind: 's', child: child})
		}
		elapsed := runProg(t, s, base, append(prog, gop{kind: 'y'}))
		return elapsed, s.DRAMLines
	}
	e1, d1 := trial()
	e2, d2 := trial()
	if e1 != e2 || d1 != d2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", e1, d1, e2, d2)
	}
}

func TestRowHitRatioTracksLocality(t *testing.T) {
	cfg := SandyBridgeXeon()
	cfg.PrefetchDegree = 0
	s := NewSystem(cfg)
	runProg(t, s, s.Alloc(8<<10), readLines(128, sequential)) // one DRAM row
	if r := s.RowHitRatio(); r < 0.9 {
		t.Fatalf("sequential row-hit ratio = %v", r)
	}
}

// linePasses is a thread body making passes over an array a line at a
// time: it reads and then writes each line of src, and streams the same
// line of dst with a non-temporal store.
type linePasses struct {
	src, dst, bytes int64
	passes          int
	off             int64
	pc              int
}

func (b *linePasses) Step(t *CThread) bool {
	for b.passes > 0 {
		switch b.pc {
		case 0:
			b.pc = 1
			if t.Read(b.src+b.off, 64) {
				return false
			}
		case 1:
			b.pc = 2
			if t.Write(b.src+b.off, 64) {
				return false
			}
		case 2:
			t.WriteNT(b.dst+b.off, 64)
			b.pc = 0
			if b.off += 64; b.off == b.bytes {
				b.off = 0
				b.passes--
			}
		}
	}
	return true
}

// TestHotPathAllocsFlat holds the Xeon memory path to the hot-path
// allocation contract: a thread reading, writing and streaming an array
// that overflows the L3 (tag probes, DRAM fetches and dirty writebacks,
// write-combined line runs) allocates nothing per pass, so ten passes cost
// no more allocations than one. The Sandy Bridge caches are scaled down to
// keep the run short; the 80 KiB L3 keeps a set count that is not a power
// of two, like the full-size one. The stream prefetcher is off: its map of
// in-flight lines rehashes once more in some runs and not in others, as
// its hash seed decides, which would make the counts differ by one at
// random. The systems are built before counting: NewSystem names its
// resources through fmt, whose pooled buffers the race detector drops at
// random. Not parallel: testing.AllocsPerRun counts every goroutine's
// mallocs.
func TestHotPathAllocsFlat(t *testing.T) {
	cfg := SandyBridgeXeon()
	cfg.L2Bytes = 16 << 10
	cfg.L3Bytes = 80 << 10
	cfg.PrefetchDegree = 0
	const bytes = 256 << 10
	allocs := func(passes int) float64 {
		const runs = 3
		systems := make([]*System, runs+1) // AllocsPerRun adds one warm-up call
		for i := range systems {
			systems[i] = NewSystem(cfg)
		}
		return testing.AllocsPerRun(runs, func() {
			s := systems[0]
			systems = systems[1:]
			body := &linePasses{src: s.Alloc(bytes), dst: s.Alloc(bytes), bytes: bytes, passes: passes}
			if _, err := s.Run(body); err != nil {
				t.Fatal(err)
			}
			if want := uint64(passes * bytes / 64); s.NTWriteLines != want || s.WritebackLines == 0 {
				t.Fatalf("%d passes: %d streamed lines (want %d), %d writebacks", passes, s.NTWriteLines, want, s.WritebackLines)
			}
		})
	}
	if short, long := allocs(1), allocs(10); long > short {
		t.Errorf("the Xeon memory path allocates per pass: %v allocations at 1 pass, %v at 10", short, long)
	}
}

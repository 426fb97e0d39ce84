package xeon

import (
	"fmt"

	"emuchick/internal/sim"
)

// System is one simulated CPU platform: cores with private L2s, a shared
// L3, a DRAM controller, and a Cilk-like runtime (Spawn/Sync) whose workers
// are placed round-robin over hardware threads. Like machine.System it is
// single-use.
type System struct {
	Cfg Config
	Eng *sim.Engine

	clock sim.Clock
	cores []*sim.Resource // per-core issue/execute port
	l2    []*cache        // per-core private L2
	l3    *cache          // shared L3
	mem   *dram

	nextHW  int   // round-robin hardware-thread placement cursor
	nextMem int64 // bump allocator for model addresses

	// prefetchReady holds the DRAM completion time of lines that were
	// prefetched into the caches but whose transfer may still be in
	// flight; a demand hit on such a line waits for it.
	prefetchReady map[int64]sim.Time

	DRAMLines      uint64 // lines fetched from memory (fills + prefetches)
	WritebackLines uint64 // dirty lines written back to memory
	NTWriteLines   uint64 // lines written by non-temporal stores
}

// NewSystem builds a CPU platform from the configuration, panicking on an
// invalid one.
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		Cfg:           cfg,
		Eng:           sim.NewEngineSized(cfg.HardwareThreads()*2 + 64),
		clock:         sim.NewClock(cfg.CoreHz),
		cores:         make([]*sim.Resource, cfg.Cores),
		l2:            make([]*cache, cfg.Cores),
		l3:            newCache(cfg.L3Bytes, cfg.LineBytes, cfg.L3Assoc),
		mem:           newDRAM(&cfg),
		prefetchReady: make(map[int64]sim.Time),
	}
	for i := range s.cores {
		s.cores[i] = sim.NewResource(fmt.Sprintf("core%d", i))
		s.l2[i] = newCache(cfg.L2Bytes, cfg.LineBytes, cfg.L2Assoc)
	}
	return s
}

// Alloc reserves bytes of model address space, aligned to a cache line,
// and returns the base address. The addresses drive the timing model only;
// kernels keep their data in ordinary Go slices.
func (s *System) Alloc(bytes int64) int64 {
	base := s.nextMem
	lb := int64(s.Cfg.LineBytes)
	s.nextMem += (bytes + lb - 1) / lb * lb
	return base
}

// RowHitRatio reports the fraction of DRAM line fetches that hit an open
// row.
func (s *System) RowHitRatio() float64 {
	total := s.mem.rowHits + s.mem.rowMisses
	if total == 0 {
		return 0
	}
	return float64(s.mem.rowHits) / float64(total)
}

// L2Accesses reports the demand line reads and writes the cores' L2s have
// looked up, hits and misses together. Prefetches probe without counting.
func (s *System) L2Accesses() uint64 {
	var n uint64
	for _, c := range s.l2 {
		n += c.hits + c.misses
	}
	return n
}

// PeakChannelUtilization reports the busiest DRAM channel's utilization.
func (s *System) PeakChannelUtilization(elapsed sim.Time) float64 {
	return s.mem.busiestUtilization(elapsed)
}

// Run executes root as the first software thread and drives the simulation
// to completion, returning total simulated time.
func (s *System) Run(root CBody) (sim.Time, error) {
	start := s.Eng.Now()
	s.startThread(start, root, nil)
	if err := s.Eng.Run(); err != nil {
		return 0, err
	}
	return s.Eng.Now() - start, nil
}

// startThread places a new software thread on the next hardware-thread slot
// and schedules its first dispatch at time at.
func (s *System) startThread(at sim.Time, body CBody, parent *sim.Join) {
	t := &CThread{sys: s, core: s.nextHW % s.Cfg.Cores, body: body, parent: parent, wcLine: -1}
	for i := range t.streams {
		t.streams[i] = -2 // no stream tracks line -2 or -1
	}
	s.nextHW = (s.nextHW + 1) % s.Cfg.HardwareThreads()
	t.p = s.Eng.SpawnContAt(at, "cpu", t)
}

// streamTableSize is how many concurrent sequential streams the per-thread
// prefetcher tracks — real L2 prefetchers track several, which matters for
// kernels like STREAM that interleave accesses to multiple arrays.
const streamTableSize = 4

// CThread is one software thread of the Cilk runtime, pinned to a core. It
// is a continuation: the event loop resumes it by calling its body's Step,
// never by handing a goroutine the control token. An operation that must
// wait — a memory access, compute, the spawn overhead, a sync — books its
// resources, schedules the thread's next dispatch, and returns parked=true;
// the body's Step must then return false and is called again once the
// operation has completed.
type CThread struct {
	sys       *System
	p         *sim.Proc
	core      int
	body      CBody
	children  sim.Join  // children spawned and not yet joined
	parent    *sim.Join // the spawner's children join; nil for the root
	spawned   CBody     // a child whose launch waits on the spawn overhead
	finishing bool      // the body returned; the implicit sync is in flight

	// Stream-prefetcher state (per hardware context): last line and run
	// length of each tracked stream, plus a round-robin victim cursor.
	streams [streamTableSize]int64
	runs    [streamTableSize]int
	victim  int

	// wcLine is the line held by the non-temporal write-combining buffer.
	wcLine int64
}

// CBody is the body of a CThread as a resumable state machine. Step runs
// the body until it completes (true) or until an operation reports
// parked=true (false). A body advances its own cursor before issuing an
// operation, so the next Step resumes past it.
type CBody interface {
	Step(t *CThread) bool
}

// StepProc is the sim.Stepper hook: it launches a child whose spawn
// overhead has elapsed, resumes the body, and at the body's end joins its
// children (the implicit cilk_sync) and tells the parent.
func (t *CThread) StepProc(p *sim.Proc) {
	if !t.finishing {
		if t.spawned != nil {
			t.launch()
		}
		if !t.body.Step(t) {
			return
		}
		t.finishing = true
		if t.children.WaitCont(p) {
			return
		}
	}
	if t.parent != nil {
		t.parent.Done()
	}
	p.Exit()
}

// Core reports the core the thread is pinned to.
func (t *CThread) Core() int { return t.core }

// Now reports the current simulated time.
func (t *CThread) Now() sim.Time { return t.p.Now() }

// System returns the platform the thread runs on.
func (t *CThread) System() *System { return t.sys }

// Compute charges cycles of execution on the thread's core.
func (t *CThread) Compute(cycles int64) (parked bool) {
	if cycles <= 0 {
		return false
	}
	_, done := t.sys.cores[t.core].Acquire(t.p.Now(), t.sys.clock.Cycles(cycles))
	return t.p.SleepUntil(done)
}

// Read models a blocking load of bytes at addr, walking the cache
// hierarchy per covered line.
func (t *CThread) Read(addr, bytes int64) (parked bool) { return t.access(addr, bytes, false) }

// Write models a store of bytes at addr with write-allocate semantics: the
// line is fetched like a read, marked dirty, and written back to memory
// when eventually evicted (consuming channel bandwidth asynchronously).
func (t *CThread) Write(addr, bytes int64) (parked bool) { return t.access(addr, bytes, true) }

// WriteNT models a non-temporal (streaming) store: it bypasses the caches
// through a per-thread write-combining buffer, booking one full-line DRAM
// write each time the store stream enters a new line. Tuned STREAM kernels
// use it for the destination array. The thread does not stall.
//
// Only the span's first line can already sit in the write-combining buffer
// (each later line differs from its predecessor by construction), so the
// per-line buffer check of the old loop reduces to one comparison and the
// rest of the span books as a single bulk run per DRAM channel.
func (t *CThread) WriteNT(addr, bytes int64) {
	if bytes <= 0 {
		return
	}
	s := t.sys
	first, last := s.lines(addr, bytes)
	if first == t.wcLine {
		first++ // combines into the open write-combining buffer
	}
	if first > last {
		return
	}
	t.wcLine = last
	s.mem.writebackRun(t.p.Now(), first, last)
	s.NTWriteLines += uint64(last - first + 1)
}

// lines returns the first and last line of [addr, addr+bytes), bytes > 0.
// The model's lines run 0 through maxLine, the most a cache way can hold,
// so a span outside them panics, naming its address.
func (s *System) lines(addr, bytes int64) (first, last int64) {
	lb := int64(s.Cfg.LineBytes)
	first, last = addr/lb, (addr+bytes-1)/lb
	if addr < 0 || last > maxLine {
		panic(fmt.Sprintf("xeon: %d-byte access at address %#x lies outside the model's lines 0..%d", bytes, addr, maxLine))
	}
	return first, last
}

func (t *CThread) access(addr, bytes int64, write bool) (parked bool) {
	if bytes <= 0 {
		return false
	}
	first, last := t.sys.lines(addr, bytes)
	finish := t.p.Now()
	for line := first; line <= last; line++ {
		if done := t.lineAccess(line, write); done > finish {
			finish = done
		}
	}
	return t.p.SleepUntil(finish)
}

// fillL3 fills line into way w of the L3 set at base (as chosen by find),
// writing back the dirty victim.
func (s *System) fillL3(now sim.Time, base, w int, line int64) {
	if ev, dirty := s.l3.fill(base, w, line); dirty {
		s.mem.writeback(now, ev)
		s.WritebackLines++
	}
}

// fillL2 fills line into way w of a core's L2 set at base; a dirty victim
// is absorbed by the L3 when present there (marked dirty), otherwise
// written to memory.
func (s *System) fillL2(now sim.Time, l2 *cache, base, w int, line int64) {
	if ev, dirty := l2.fill(base, w, line); dirty && !s.l3.markDirty(ev) {
		s.mem.writeback(now, ev)
		s.WritebackLines++
	}
}

// lineAccess resolves one line through L2 -> L3 -> DRAM and returns the
// completion time. It also drives the stream prefetcher. Each cache level
// scans the line's set once: a miss fills the way its probe found.
func (t *CThread) lineAccess(line int64, write bool) sim.Time {
	s := t.sys
	now := t.p.Now()
	l2 := s.l2[t.core]

	// Stream detection: two sequential line advances on any tracked
	// stream arm the prefetcher, which then runs PrefetchDegree lines
	// ahead into L3, stopping at the end of the line range.
	if s.Cfg.PrefetchDegree > 0 && t.prefetchArm(line) {
		for pl := line + 1; pl <= line+int64(s.Cfg.PrefetchDegree) && pl <= maxLine; pl++ {
			if base, w, hit := s.l3.find(pl); !hit {
				ready := s.mem.fetch(now, pl)
				s.fillL3(now, base, w, pl)
				s.prefetchReady[pl] = ready
				s.DRAMLines++
			}
			// The L2 prefetcher pulls the stream into the requesting
			// core's private cache, which is what lets STREAM run at
			// L2 speed.
			if base, w, hit := l2.find(pl); hit {
				l2.promote(base, w)
			} else {
				s.fillL2(now, l2, base, w, pl)
			}
		}
	}

	// waitReady adds any in-flight prefetch completion to a hit time, so
	// prefetched lines cannot be consumed faster than DRAM delivers them.
	// The empty-map guard keeps prefetch-free kernels (pointer chase) off
	// the hash probe entirely.
	waitReady := func(done sim.Time) sim.Time {
		if len(s.prefetchReady) == 0 {
			return done
		}
		if ready, ok := s.prefetchReady[line]; ok {
			delete(s.prefetchReady, line)
			if ready > done {
				return ready
			}
		}
		return done
	}

	// A hit leaves the line at way 0 of its set, as does a fill.
	base, w, hit := l2.lookup(line)
	var done sim.Time
	if hit {
		done = waitReady(now + s.Cfg.L2Latency)
	} else if base3, w3, hit3 := s.l3.lookup(line); hit3 {
		done = waitReady(now + s.Cfg.L3Latency)
		s.fillL2(now, l2, base, w, line)
	} else {
		done = s.mem.fetch(now, line)
		s.fillL3(now, base3, w3, line)
		s.DRAMLines++
		s.fillL2(now, l2, base, w, line)
	}
	if write {
		l2.ways[base] |= dirtyBit
	}
	return done
}

// prefetchArm feeds one demand line to the stream table and reports
// whether an armed stream should prefetch ahead of it. Re-touching a
// stream's current line is neutral; advancing it by one line extends the
// run; anything else allocates a fresh table entry round-robin.
func (t *CThread) prefetchArm(line int64) bool {
	for i := range t.streams {
		switch line {
		case t.streams[i]:
			return false
		case t.streams[i] + 1:
			t.streams[i] = line
			t.runs[i]++
			return t.runs[i] >= 2
		}
	}
	t.streams[t.victim] = line
	t.runs[t.victim] = 0
	t.victim = (t.victim + 1) % streamTableSize
	return false
}

// Spawn creates a child thread (cilk_spawn): the parent is charged the
// runtime's spawn overhead and the child begins after the same overhead on
// the next hardware thread slot.
func (t *CThread) Spawn(body CBody) (parked bool) {
	s := t.sys
	t.spawned = body
	if s.Cfg.SpawnOverhead > 0 {
		_, done := s.cores[t.core].Acquire(t.p.Now(), s.Cfg.SpawnOverhead)
		if t.p.SleepUntil(done) {
			return true // StepProc launches the child on resumption
		}
	}
	t.launch()
	return false
}

// launch starts the pending spawned child once the parent has paid the
// spawn overhead.
func (t *CThread) launch() {
	body := t.spawned
	t.spawned = nil
	t.children.Add(1)
	t.sys.startThread(t.p.Now()+t.sys.Cfg.SpawnOverhead, body, &t.children)
}

// Sync blocks until all children spawned so far have finished (cilk_sync).
func (t *CThread) Sync() (parked bool) { return t.children.WaitCont(t.p) }

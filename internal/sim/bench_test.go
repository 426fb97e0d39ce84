package sim

import "testing"

// Per-layer benchmarks of the event loop: schedule plus dispatch under a
// steady pending population, a same-time burst, the SleepUntil fast-forward
// hop, semaphore wakes and pooled spawns. Each reports events/op from
// Fired(), so ns/op divided by events/op is the cost of one event. The
// allocation tests drive the same models through allocsFlat.

// allocsFlat holds the path run drives to the hot-path allocation
// contract: run(n) performs n operations on it, and run(10*k) may allocate
// no more than run(k), each counted by testing.AllocsPerRun. Setup
// allocations appear in both counts, so no number is pinned; an allocation
// per operation, however it arises (a make, a growing append, a heap
// escape), shows as growth. Its callers must not run in parallel, because
// AllocsPerRun counts every goroutine's mallocs.
func allocsFlat(t *testing.T, what string, k int, run func(n int)) {
	t.Helper()
	short := testing.AllocsPerRun(3, func() { run(k) })
	long := testing.AllocsPerRun(3, func() { run(10 * k) })
	if long > short {
		t.Errorf("%s allocates per operation: %v allocations at %d operations, %v at %d", what, short, k, long, 10*k)
	}
}

// holdFirings is how many events one hold-model op fires.
const holdFirings = 1 << 16

// holdModel keeps a fixed number of events pending: every firing schedules
// its replacement at now plus a chase-like delay, a few 300 MHz cycles plus
// queueing jitter from a xorshift, until the op's firings are used up.
type holdModel struct {
	e    *Engine
	x    uint64
	left int
	fire func()
}

func (h *holdModel) delay() Time {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	return 4*3333 + Time(h.x%(64*3333))
}

func (h *holdModel) step() {
	if h.left > 0 {
		h.left--
		h.e.After(h.delay(), h.fire)
	}
}

// runHold runs a fresh hold model that keeps pending events in flight
// until firings events have fired, and returns its engine.
func runHold(pending, firings int) (*Engine, error) {
	h := &holdModel{e: NewEngineSized(pending), x: 88172645463325252, left: firings - pending}
	h.fire = h.step
	for k := 0; k < pending; k++ {
		h.e.Schedule(h.delay(), h.fire)
	}
	return h.e, h.e.Run()
}

func benchHold(b *testing.B, pending int) {
	var fired uint64
	for i := 0; i < b.N; i++ {
		e, err := runHold(pending, holdFirings)
		if err != nil {
			b.Fatal(err)
		}
		fired += e.Fired()
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}

func BenchmarkHold64(b *testing.B)   { benchHold(b, 64) }
func BenchmarkHold512(b *testing.B)  { benchHold(b, 512) }
func BenchmarkHold4096(b *testing.B) { benchHold(b, 4096) }

// BenchmarkBurst4096 schedules 4096 events at one timestamp and drains
// them, on one engine reused across ops.
func BenchmarkBurst4096(b *testing.B) {
	const burst = 4096
	e := NewEngineSized(burst)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := e.Now() + 1
		for k := 0; k < burst; k++ {
			e.Schedule(at, fn)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e.Fired())/float64(b.N), "events/op")
}

// hopper is a continuation proc that sleeps hops times by a chase-like
// step; with nothing else pending, every sleep is a fast-forward hop.
type hopper struct{ hops int }

func (h *hopper) StepProc(p *Proc) {
	for ; h.hops > 0; h.hops-- {
		if p.SleepUntil(p.Now() + 5*3333) {
			panic("hopper parked with nothing else pending")
		}
	}
	p.Exit()
}

// BenchmarkFastForward4096 runs one proc through 4096 SleepUntil hops that
// each fast-forward the clock instead of a queue round trip.
func BenchmarkFastForward4096(b *testing.B) {
	e := NewEngine()
	h := &hopper{}
	for i := 0; i < b.N; i++ {
		if err := h.run(e, 4096); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e.Fired())/float64(b.N), "events/op")
}

// run spawns h on e for hops hops and runs e.
func (h *hopper) run(e *Engine, hops int) error {
	h.hops = hops
	e.SpawnContAt(e.Now(), "hopper", h)
	return e.Run()
}

// contender is a continuation proc that takes a one-slot semaphore rounds
// times, holding it for one 300 MHz cycle each time. With many contenders,
// every acquire but the first parks and every release wakes the next.
type contender struct {
	sem    *Semaphore
	rounds int
	phase  int
}

func (c *contender) StepProc(p *Proc) {
	for {
		switch c.phase {
		case 0:
			if c.rounds == 0 {
				p.Exit()
				return
			}
			c.phase = 1
			if c.sem.AcquireCont(p) {
				return
			}
		case 1:
			c.phase = 2
			if p.SleepUntil(p.Now() + 3333) {
				return
			}
		case 2:
			c.sem.Release()
			c.rounds--
			c.phase = 0
		}
	}
}

// BenchmarkAcquireContWake runs 64 continuation procs through 64 rounds
// each on one semaphore slot: 4096 AcquireCont parks and Release wakes.
func BenchmarkAcquireContWake(b *testing.B) {
	const procs, rounds = 64, 64
	cs := make([]contender, procs)
	e := NewEngineSized(procs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runContenders(e, cs, rounds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e.Fired())/float64(b.N), "events/op")
}

// runContenders runs one contender per element of cs through rounds rounds
// on a fresh one-slot semaphore on e.
func runContenders(e *Engine, cs []contender, rounds int) error {
	sem := NewSemaphore(e, "slot", 1)
	for k := range cs {
		cs[k] = contender{sem: sem, rounds: rounds}
		e.SpawnContAt(e.Now(), "contender", &cs[k])
	}
	return e.Run()
}

// exiter is a continuation proc whose body is empty.
type exiter struct{}

func (exiter) StepProc(p *Proc) { p.Exit() }

// spawner spawns left children one at a time, each after the last has
// exited, so every spawn but the first recycles a pooled Proc.
type spawner struct{ left int }

func (s *spawner) StepProc(p *Proc) {
	for ; s.left > 0; s.left-- {
		p.Engine().SpawnContAt(p.Now(), "child", exiter{})
		if p.SleepUntil(p.Now() + 1) {
			s.left--
			return
		}
	}
	p.Exit()
}

// BenchmarkSpawnPooled4096 spawns 4096 short-lived continuation procs in
// sequence; all but the first hit the engine's proc pool.
func BenchmarkSpawnPooled4096(b *testing.B) {
	e := NewEngine()
	s := &spawner{}
	for i := 0; i < b.N; i++ {
		if err := s.run(e, 4096); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e.Fired())/float64(b.N), "events/op")
}

// run spawns s on e to spawn children children in sequence, and runs e.
func (s *spawner) run(e *Engine, children int) error {
	s.left = children
	e.SpawnContAt(e.Now(), "spawner", s)
	return e.Run()
}

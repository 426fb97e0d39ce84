package machine

import (
	"fmt"

	"emuchick/internal/fault"
	"emuchick/internal/memsys"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// System is one simulated Emu machine: an engine, a global address space,
// and the modelled hardware resources of every nodelet. A System is
// single-use: construct, allocate, Run, read results.
type System struct {
	Cfg      Config
	Eng      *sim.Engine
	Mem      *memsys.Space
	Counters *Counters

	clock       sim.Clock
	faults      *fault.Resolved // nil on healthy machines (the fast path)
	obs         trace.Observer
	sampleEvery sim.Time // gauge sampling interval; 0 disables
	nextSample  sim.Time // next sampling boundary
	nodelets    []*nodelet
	links       []*sim.Resource // per-node fabric egress link
	migEngines  []*sim.Resource // per-node migration engine

	// freeCThreads pools finished threadlet contexts for reuse, so
	// spawn-heavy kernels allocate thread state only up to the peak live
	// count. The simulated analogue is exact: a Gossamer context slot is
	// likewise a recycled hardware resource, not a fresh allocation per
	// threadlet. This pool plus the sim proc pool is the entire
	// steady-state allocation footprint of a spawn.
	freeCThreads []*CThread

	// Migration-path constants, precomputed so the hot migrate path does no
	// floating-point division per hop.
	migSvc  sim.Time // service time of one migration at the engine's rate
	ctxXfer sim.Time // fabric transfer time of one thread context
}

// nodelet bundles the modelled resources of one nodelet.
type nodelet struct {
	id       int
	cores    []*sim.Resource // issue port of each Gossamer core
	nextCore int             // round-robin core assignment cursor
	channel  *sim.Resource   // the NCDRAM channel
	slots    *sim.Semaphore  // resident thread-context capacity
}

// NewSystem builds a system from the configuration. It panics on an invalid
// configuration (a construction-time programming error, per the Validate
// contract).
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.TotalNodelets()
	// Pending events are bounded by resident thread contexts (each runnable
	// thread has at most one scheduled wake-up) plus a little slack for
	// spawn/unpark chains; pre-sizing the queue avoids growth reallocations
	// on the hot path.
	eng := sim.NewEngineSized(n*cfg.ContextsPerNodelet() + 64)
	s := &System{
		Cfg:         cfg,
		Eng:         eng,
		Mem:         memsys.NewSpace(n),
		Counters:    newCounters(n),
		clock:       sim.NewClock(cfg.CoreHz),
		sampleEvery: defaultSampleEvery,
		nextSample:  defaultSampleEvery,
		nodelets:    make([]*nodelet, n),
		links:       make([]*sim.Resource, cfg.Nodes),
		migEngines:  make([]*sim.Resource, cfg.Nodes),
		migSvc:      sim.Interval(cfg.MigrationsPerSec),
		ctxXfer:     sim.TransferTime(cfg.ContextBytes, cfg.FabricBytesPerSec),
	}
	for i := 0; i < n; i++ {
		nl := &nodelet{
			id:      i,
			cores:   make([]*sim.Resource, cfg.GCsPerNodelet),
			channel: sim.NewResource(fmt.Sprintf("nl%d.channel", i)),
			slots:   sim.NewSemaphore(eng, fmt.Sprintf("nl%d.contexts", i), cfg.ContextsPerNodelet()),
		}
		for c := range nl.cores {
			nl.cores[c] = sim.NewResource(fmt.Sprintf("nl%d.gc%d", i, c))
		}
		s.nodelets[i] = nl
	}
	for nd := 0; nd < cfg.Nodes; nd++ {
		s.links[nd] = sim.NewResource(fmt.Sprintf("node%d.fabric", nd))
		s.migEngines[nd] = sim.NewResource(fmt.Sprintf("node%d.migration", nd))
	}
	return s
}

// InjectFaults binds a fault plan to the machine before Run. Core and channel
// slowdowns are pushed into the affected resources as service-time scales;
// link windows and migration-engine stalls are consulted on the migrate path.
// A nil or empty plan is a no-op that leaves the machine on its exact
// fault-free code paths (the byte-identity contract of package fault).
// Injecting an invalid plan panics, matching NewSystem's Validate contract.
func (s *System) InjectFaults(p *fault.Plan) {
	r, err := p.Resolve(len(s.nodelets), s.Cfg.Nodes)
	if err != nil {
		panic(err)
	}
	if r == nil {
		return
	}
	s.faults = r
	for i, nl := range s.nodelets {
		if f := r.CoreScale[i]; f != 1 {
			for _, core := range nl.cores {
				core.SetServiceScale(f)
			}
		}
		if f := r.ChannelScale[i]; f != 1 {
			nl.channel.SetServiceScale(f)
		}
	}
}

// Faults reports the resolved fault plan bound to this machine (nil when
// healthy).
func (s *System) Faults() *fault.Resolved { return s.faults }

// Nodelets reports the total nodelet count.
func (s *System) Nodelets() int { return len(s.nodelets) }

// Clock returns the Gossamer core clock.
func (s *System) Clock() sim.Clock { return s.clock }

// Run executes root as the initial threadlet on nodelet 0 (where the
// Chick's runtime launches a program's main thread) and drives the
// simulation until every threadlet has finished. It returns the total
// simulated time.
func (s *System) Run(root CBody) (sim.Time, error) {
	start := s.beginRun()
	t := s.acquireCThread()
	t.nodelet = 0
	t.body = root
	s.Eng.SpawnContAt(s.Eng.Now(), "main", t)
	return s.finishRun(start)
}

// beginRun emits the run-begin marker and accounts the main thread's spawn.
func (s *System) beginRun() sim.Time {
	start := s.Eng.Now()
	s.emit(trace.KindRunBegin, len(s.nodelets), -1, 0, start, start)
	s.Counters.localSpawns[0]++ // the main thread itself
	return start
}

// finishRun drives the engine and closes out the run's observability.
func (s *System) finishRun(start sim.Time) (sim.Time, error) {
	if err := s.Eng.Run(); err != nil {
		return 0, err
	}
	end := s.Eng.Now()
	if s.obs != nil && s.sampleEvery > 0 {
		s.takeSamples(end) // closing gauge snapshot at the run's end time
	}
	s.emit(trace.KindRunEnd, len(s.nodelets), -1, 0, end, end)
	return end - start, nil
}

// acquireCThread pops a pooled continuation threadlet or allocates one.
// A pool hit is the steady state.
func (s *System) acquireCThread() *CThread {
	if n := len(s.freeCThreads); n > 0 {
		t := s.freeCThreads[n-1]
		s.freeCThreads[n-1] = nil
		s.freeCThreads = s.freeCThreads[:n-1]
		*t = CThread{sys: s}
		return t
	}
	return s.newCThread()
}

func (s *System) newCThread() *CThread {
	return &CThread{sys: s}
}

// releaseCThread returns a finished continuation threadlet to the pool.
func (s *System) releaseCThread(t *CThread) {
	t.body = nil
	t.spawnBody = nil
	t.parentJoin = nil
	t.children = nil
	s.freeCThreads = append(s.freeCThreads, t)
}

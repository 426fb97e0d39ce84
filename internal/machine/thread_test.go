package machine

import (
	"testing"

	"emuchick/internal/memsys"
	"emuchick/internal/sim"
)

// run builds a fresh system with the given config, runs the root body mk
// builds against it, and returns the system and elapsed time, failing the
// test on simulation errors.
func run(t *testing.T, cfg Config, mk func(s *System) CBody) (*System, sim.Time) {
	t.Helper()
	s := NewSystem(cfg)
	elapsed, err := s.Run(mk(s))
	if err != nil {
		t.Fatal(err)
	}
	return s, elapsed
}

// compute is a script step charging cycles of core work.
func compute(cycles int64) func(*CThread) bool {
	return func(th *CThread) bool { return th.CCompute(cycles) }
}

// loadAll is a script loading words 0..n-1 of at, in order.
func loadAll(at func(i int) memsys.Addr, n int) script {
	sc := make(script, n)
	for i := range sc {
		sc[i] = func(th *CThread) bool { return th.CLoad(at(i)) }
	}
	return sc
}

// timed wraps the steps of one operation sequence so *dur receives the
// simulated time they took.
func timed(dur *sim.Time, steps ...func(*CThread) bool) []func(*CThread) bool {
	var t0 sim.Time
	out := []func(*CThread) bool{func(th *CThread) bool { t0 = th.Now(); return false }}
	out = append(out, steps...)
	return append(out, func(th *CThread) bool { *dur = th.Now() - t0; return false })
}

func TestLocalLoadTiming(t *testing.T) {
	cfg := HardwareChick()
	var got sim.Time
	s, _ := run(t, cfg, func(s *System) CBody {
		arr := s.Mem.AllocLocal(0, 4)
		s.Mem.Write(arr.At(2), 99)
		sc := script(timed(&got, func(th *CThread) bool { return th.CLoad(arr.At(2)) }))
		sc = append(sc, func(th *CThread) bool {
			if v := th.Value(); v != 99 {
				t.Errorf("Load = %d, want 99", v)
			}
			return false
		})
		return &sc
	})
	want := s.clock.Cycles(cfg.MemIssueCycles) + cfg.WordAccessTime + cfg.MemLatency
	if got != want {
		t.Fatalf("local load took %v, want %v", got, want)
	}
	if s.Counters.Nodelet(0).LocalReads != 1 {
		t.Fatalf("LocalReads = %d", s.Counters.Nodelet(0).LocalReads)
	}
}

func TestRemoteLoadMigrates(t *testing.T) {
	s, _ := run(t, HardwareChick(), func(s *System) CBody {
		arr := s.Mem.AllocLocal(5, 1)
		s.Mem.Write(arr.At(0), 7)
		return &script{
			func(th *CThread) bool {
				if th.Nodelet() != 0 {
					t.Fatalf("root on nodelet %d", th.Nodelet())
				}
				return th.CLoad(arr.At(0))
			},
			func(th *CThread) bool {
				if v := th.Value(); v != 7 {
					t.Errorf("Load = %d", v)
				}
				if th.Nodelet() != 5 {
					t.Errorf("thread on nodelet %d after remote load, want 5", th.Nodelet())
				}
				return false
			},
		}
	})
	c := s.Counters
	if c.Nodelet(0).MigrationsOut != 1 || c.Nodelet(5).MigrationsIn != 1 {
		t.Fatalf("migration counters: out0=%d in5=%d",
			c.Nodelet(0).MigrationsOut, c.Nodelet(5).MigrationsIn)
	}
	// The read itself is served locally on nodelet 5.
	if c.Nodelet(5).LocalReads != 1 || c.Nodelet(0).LocalReads != 0 {
		t.Fatal("read served on wrong nodelet")
	}
}

func TestMigrationLatencyBounds(t *testing.T) {
	cfg := HardwareChick()
	var dur sim.Time
	run(t, cfg, func(*System) CBody {
		sc := script(timed(&dur, func(th *CThread) bool { return th.CMigrateTo(3) }))
		return &sc
	})
	// One uncontended migration costs engine service + flight latency;
	// the paper measures 1-2 us end to end.
	if dur < cfg.MigrationLatency {
		t.Fatalf("migration faster than flight latency: %v", dur)
	}
	if dur > 2*sim.Microsecond {
		t.Fatalf("uncontended migration took %v, exceeds the paper's 2 us bound", dur)
	}
}

func TestMigrateToSelfIsFree(t *testing.T) {
	var dur sim.Time
	s, _ := run(t, HardwareChick(), func(*System) CBody {
		sc := script(timed(&dur, func(th *CThread) bool {
			if th.CMigrateTo(th.Nodelet()) {
				t.Error("self-migration parked")
				return true
			}
			return false
		}))
		return &sc
	})
	if dur != 0 {
		t.Error("self-migration consumed time")
	}
	if s.Counters.TotalMigrations() != 0 {
		t.Fatal("self-migration counted")
	}
}

func TestRemoteStoreIsPosted(t *testing.T) {
	cfg := HardwareChick()
	var dur sim.Time
	s, _ := run(t, cfg, func(s *System) CBody {
		arr := s.Mem.AllocLocal(4, 1)
		sc := script(timed(&dur, func(th *CThread) bool { return th.CStore(arr.At(0), 11) }))
		sc = append(sc, func(th *CThread) bool {
			if th.Nodelet() != 0 {
				t.Error("remote store migrated the thread")
			}
			if s.Mem.Read(arr.At(0)) != 11 {
				t.Error("remote store lost")
			}
			return false
		})
		return &sc
	})
	// Posted: the thread only pays the issue cycle, far less than a
	// migration or the memory latency.
	if dur >= cfg.MemLatency {
		t.Fatalf("posted store blocked for %v", dur)
	}
	if s.Counters.Nodelet(4).RemoteStores != 1 {
		t.Fatalf("RemoteStores = %d", s.Counters.Nodelet(4).RemoteStores)
	}
}

func TestLocalStoreBlocks(t *testing.T) {
	cfg := HardwareChick()
	var dur sim.Time
	run(t, cfg, func(s *System) CBody {
		arr := s.Mem.AllocLocal(0, 1)
		sc := script(timed(&dur, func(th *CThread) bool { return th.CStore(arr.At(0), 5) }))
		return &sc
	})
	want := NewSystem(cfg).clock.Cycles(cfg.MemIssueCycles) + cfg.WordAccessTime + cfg.MemLatency
	if dur != want {
		t.Fatalf("local store took %v, want %v", dur, want)
	}
}

func TestRemoteAddAccumulates(t *testing.T) {
	s, _ := run(t, HardwareChick(), func(s *System) CBody {
		acc := s.Mem.AllocLocal(7, 1)
		var sc script
		for i := 0; i < 10; i++ {
			sc = append(sc, func(th *CThread) bool { return th.CRemoteAdd(acc.At(0), 2) })
		}
		sc = append(sc, (*CThread).CSync, func(*CThread) bool {
			if got := s.Mem.Read(acc.At(0)); got != 20 {
				t.Errorf("accumulated %d, want 20", got)
			}
			return false
		})
		return &sc
	})
	if s.Counters.Nodelet(7).Atomics != 10 {
		t.Fatal("RemoteAdd atomics miscounted")
	}
}

func TestPostedBackpressure(t *testing.T) {
	// A burst of posted stores to one remote word must throttle to the
	// destination channel's service rate once the finite remote queue
	// fills, so doubling the burst roughly doubles the time.
	elapsedFor := func(n int) sim.Time {
		_, elapsed := run(t, HardwareChick(), func(s *System) CBody {
			cell := s.Mem.AllocLocal(7, 1)
			sc := make(script, n)
			for i := range sc {
				sc[i] = func(th *CThread) bool { return th.CStore(cell.At(0), uint64(i)) }
			}
			return &sc
		})
		return elapsed
	}
	small, big := elapsedFor(500), elapsedFor(1000)
	ratio := big.Seconds() / small.Seconds()
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("backpressure missing: 500->%v 1000->%v (ratio %.2f)", small, big, ratio)
	}
}

func TestSpawnSyncSemantics(t *testing.T) {
	s, _ := run(t, HardwareChick(), func(s *System) CBody {
		sum := s.Mem.AllocLocal(0, 1)
		var sc script
		for i := 0; i < 8; i++ {
			sc = append(sc, func(th *CThread) bool {
				return th.CSpawn(&script{compute(100), func(c *CThread) bool { return c.CRemoteAdd(sum.At(0), 1) }})
			})
		}
		sc = append(sc, (*CThread).CSync, func(th *CThread) bool {
			if got := s.Mem.Read(sum.At(0)); got != 8 {
				t.Errorf("after Sync sum = %d, want 8", got)
			}
			return false
		})
		return &sc
	})
	if s.Counters.ThreadsSpawned != 9 || s.Counters.ThreadsCompleted != 9 {
		t.Fatalf("thread accounting: %d spawned, %d completed",
			s.Counters.ThreadsSpawned, s.Counters.ThreadsCompleted)
	}
	if s.Counters.Nodelet(0).LocalSpawns != 9 {
		t.Fatalf("LocalSpawns = %d, want 9 (root + 8 children)", s.Counters.Nodelet(0).LocalSpawns)
	}
}

func TestImplicitSyncAtThreadEnd(t *testing.T) {
	// A thread that returns without syncing must still be joined after its
	// children (Cilk semantics).
	var childDone bool
	grandchild := &script{compute(10000), func(*CThread) bool { childDone = true; return false }}
	child := &script{func(c *CThread) bool { return c.CSpawn(grandchild) }} // no explicit sync
	run(t, HardwareChick(), func(*System) CBody {
		return &script{
			func(th *CThread) bool { return th.CSpawn(child) },
			(*CThread).CSync,
			func(*CThread) bool {
				if !childDone {
					t.Error("grandchild not finished at parent Sync")
				}
				return false
			},
		}
	})
}

func TestSpawnAtPlacesChild(t *testing.T) {
	s, _ := run(t, HardwareChick(), func(*System) CBody {
		var sc script
		for nl := 0; nl < 8; nl++ {
			sc = append(sc, func(th *CThread) bool {
				return th.CSpawnAt(nl, &script{func(c *CThread) bool {
					if c.Nodelet() != nl {
						t.Errorf("child started on nodelet %d, want %d", c.Nodelet(), nl)
					}
					return false
				}})
			})
		}
		sc = append(sc, (*CThread).CSync)
		return &sc
	})
	for nl := 1; nl < 8; nl++ {
		if s.Counters.Nodelet(nl).RemoteSpawns != 1 {
			t.Fatalf("nodelet %d RemoteSpawns = %d", nl, s.Counters.Nodelet(nl).RemoteSpawns)
		}
	}
	if s.Counters.TotalMigrations() != 0 {
		t.Fatal("remote spawns must not count as migrations")
	}
}

func TestContextSlotsLimitResidentThreads(t *testing.T) {
	cfg := HardwareChick()
	cfg.ThreadsPerGC = 4 // tiny capacity to make the limit observable
	s, _ := run(t, cfg, func(*System) CBody {
		var sc script
		for i := 0; i < 16; i++ {
			sc = append(sc, func(th *CThread) bool { return th.CSpawn(&script{compute(1000)}) })
		}
		sc = append(sc, (*CThread).CSync)
		return &sc
	})
	if maxLive := s.nodelets[0].slots.MaxInUse(); maxLive > cfg.ContextsPerNodelet() {
		t.Fatalf("resident threads %d exceeded context capacity %d", maxLive, cfg.ContextsPerNodelet())
	}
	if s.Counters.ThreadsCompleted != 17 {
		t.Fatalf("completed %d of 17", s.Counters.ThreadsCompleted)
	}
}

func TestMigrationReleasesSlot(t *testing.T) {
	// A full nodelet must accept a new spawn once a resident thread
	// migrates away.
	cfg := HardwareChick()
	cfg.ThreadsPerGC = 2
	run(t, cfg, func(s *System) CBody {
		remote := s.Mem.AllocLocal(1, 1)
		// Root holds slot 1 of 2. Child A takes slot 2 and migrates away
		// to nodelet 1; child B needs the slot A vacates.
		a := &script{func(a *CThread) bool { return a.CLoad(remote.At(0)) }, compute(100000)}
		return &script{
			func(th *CThread) bool { return th.CSpawn(a) },
			func(th *CThread) bool { return th.CSpawn(&script{compute(10)}) },
			(*CThread).CSync,
		}
	})
}

func TestCrossNodeMigration(t *testing.T) {
	cfg := HardwareChickNodes(2)
	s, _ := run(t, cfg, func(s *System) CBody {
		arr := s.Mem.AllocLocal(12, 1) // node 1
		return &script{
			func(th *CThread) bool { return th.CLoad(arr.At(0)) },
			func(th *CThread) bool {
				if th.Nodelet() != 12 {
					t.Errorf("on nodelet %d, want 12", th.Nodelet())
				}
				return false
			},
		}
	})
	if s.Counters.Nodelet(12).MigrationsIn != 1 {
		t.Fatal("cross-node migration not counted")
	}
	if s.links[0].Ops() != 1 {
		t.Fatal("cross-node migration did not use the fabric link")
	}
}

func TestDeterminism(t *testing.T) {
	trial := func() (sim.Time, uint64, uint64) {
		s, elapsed := run(t, HardwareChick(), func(s *System) CBody {
			arr := s.Mem.AllocStriped(256)
			var sc script
			for w := 0; w < 16; w++ {
				var loads script
				for i := w; i < 256; i += 16 {
					loads = append(loads, func(c *CThread) bool { return c.CLoad(arr.At(i)) })
				}
				sc = append(sc, func(th *CThread) bool { return th.CSpawnAt(w%8, &loads) })
			}
			sc = append(sc, (*CThread).CSync)
			return &sc
		})
		return elapsed, s.Counters.TotalMigrations(), s.Counters.TotalWords()
	}
	e1, m1, w1 := trial()
	e2, m2, w2 := trial()
	if e1 != e2 || m1 != m2 || w1 != w2 {
		t.Fatalf("runs diverged: (%v,%d,%d) vs (%v,%d,%d)", e1, m1, w1, e2, m2, w2)
	}
}

func TestComputeChargesCore(t *testing.T) {
	cfg := HardwareChick()
	var dur sim.Time
	s, _ := run(t, cfg, func(*System) CBody {
		sc := script(timed(&dur, compute(150))) // 150 cycles at 150 MHz = 1 us
		return &sc
	})
	if dur != s.clock.Cycles(150) {
		t.Fatalf("Compute(150) took %v", dur)
	}
	if s.Counters.Nodelet(0).ComputeCycles != 150 {
		t.Fatal("compute cycles miscounted")
	}
	// CCompute(0) is free.
	run(t, cfg, func(*System) CBody {
		sc := script(timed(&dur, compute(0)))
		return &sc
	})
	if dur != 0 {
		t.Error("Compute(0) consumed time")
	}
}

func TestCoreContentionSerializesIssue(t *testing.T) {
	// Two threads computing on the same single-core nodelet take twice as
	// long in aggregate as one.
	cfg := HardwareChick()
	spawnCompute := func(th *CThread) bool { return th.CSpawn(&script{compute(15000)}) }
	_, one := run(t, cfg, func(*System) CBody {
		return &script{spawnCompute, (*CThread).CSync}
	})
	_, two := run(t, cfg, func(*System) CBody {
		return &script{spawnCompute, spawnCompute, (*CThread).CSync}
	})
	if two < one+NewSystem(cfg).clock.Cycles(15000)*9/10 {
		t.Fatalf("core contention missing: one=%v two=%v", one, two)
	}
}

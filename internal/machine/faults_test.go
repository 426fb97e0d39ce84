package machine

import (
	"testing"

	"emuchick/internal/fault"
	"emuchick/internal/sim"
)

// pingPongWorkload migrates between two nodelets and does a little memory
// work — it exercises cores, channels, the migration engine, and (when the
// nodelets sit on different node cards) the fabric link.
func pingPongWorkload(a, b, rounds int) func(s *System) CBody {
	return func(s *System) CBody {
		arr := s.Mem.AllocStriped(s.Nodelets())
		return &ctPing{arr: arr, a: a, b: b, rounds: rounds}
	}
}

// runWithPlan runs the workload on a fresh system with the plan injected and
// returns elapsed time and the counter snapshot.
func runWithPlan(t *testing.T, cfg Config, plan *fault.Plan, mk func(s *System) CBody) (sim.Time, []NodeletCounters) {
	t.Helper()
	s := NewSystem(cfg)
	s.InjectFaults(plan)
	elapsed, err := s.Run(mk(s))
	if err != nil {
		t.Fatal(err)
	}
	return elapsed, s.Counters.Snapshot()
}

func snapshotEqual(a, b []NodeletCounters) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The byte-identity contract: nil plan, empty plan, and all-factor-1 plans
// must leave elapsed time and every counter identical to an uninjected run.
func TestNoOpFaultPlansAreIdentity(t *testing.T) {
	cfg := HardwareChick()
	body := pingPongWorkload(0, 5, 50)
	baseElapsed, baseCounters := runWithPlan(t, cfg, nil, body)

	plans := map[string]*fault.Plan{
		"empty":    {},
		"seeded":   {Seed: 42},
		"factor-1": {Cores: []fault.Slowdown{{Factor: 1}}, Channels: []fault.Slowdown{{Factor: 1}}},
	}
	for name, plan := range plans {
		elapsed, counters := runWithPlan(t, cfg, plan, body)
		if elapsed != baseElapsed {
			t.Errorf("%s plan: elapsed %v != baseline %v", name, elapsed, baseElapsed)
		}
		if !snapshotEqual(counters, baseCounters) {
			t.Errorf("%s plan: counters diverged from baseline", name)
		}
		for i := range counters {
			nc := counters[i]
			if nc.StalledMigrations != 0 || nc.MigrationRetries != 0 || nc.BackoffCycles != 0 {
				t.Errorf("%s plan: nodelet %d has fault counters on a healthy run", name, i)
			}
		}
	}
}

func TestInjectFaultsOnHealthySystemLeavesNilResolved(t *testing.T) {
	s := NewSystem(HardwareChick())
	s.InjectFaults(nil)
	s.InjectFaults(&fault.Plan{})
	if s.Faults() != nil {
		t.Fatal("empty plan left a resolved fault table on the system")
	}
}

func TestChannelThrottleSlowsRun(t *testing.T) {
	cfg := HardwareChick()
	body := pingPongWorkload(0, 5, 50)
	base, _ := runWithPlan(t, cfg, nil, body)
	slow, _ := runWithPlan(t, cfg, &fault.Plan{
		Channels: []fault.Slowdown{{Factor: 4}},
	}, body)
	if slow <= base {
		t.Fatalf("4x channel throttle did not slow the run: %v vs %v", slow, base)
	}
}

func TestCoreSlowdownSlowsComputeBoundRun(t *testing.T) {
	cfg := HardwareChick()
	body := func(*System) CBody { return &script{compute(100000)} }
	base, _ := runWithPlan(t, cfg, nil, body)
	slow, _ := runWithPlan(t, cfg, &fault.Plan{
		Cores: []fault.Slowdown{{Factor: 2, Nodelets: []int{0}}},
	}, body)
	if slow != 2*base {
		t.Fatalf("2x core slowdown on a pure-compute run: %v, want %v", slow, 2*base)
	}
}

func TestMigrationStallCountsRetries(t *testing.T) {
	cfg := HardwareChick()
	// Stall the engine 40 us out of every 100 us: a 100-round ping-pong
	// (~ms of run time) must hit several windows.
	plan := &fault.Plan{
		Stalls: []fault.Stall{{Duration: 40 * sim.Microsecond, Period: 100 * sim.Microsecond}},
	}
	elapsed, counters := runWithPlan(t, cfg, plan, pingPongWorkload(0, 5, 100))
	base, _ := runWithPlan(t, cfg, nil, pingPongWorkload(0, 5, 100))
	if elapsed <= base {
		t.Fatalf("stall windows did not slow the run: %v vs %v", elapsed, base)
	}
	var stalled, retries, cycles uint64
	for _, nc := range counters {
		stalled += nc.StalledMigrations
		retries += nc.MigrationRetries
		cycles += nc.BackoffCycles
	}
	if stalled == 0 || retries == 0 || cycles == 0 {
		t.Fatalf("fault counters empty under stall plan: stalled=%d retries=%d cycles=%d",
			stalled, retries, cycles)
	}
	if retries < stalled {
		t.Fatalf("retries (%d) < stalled migrations (%d)", retries, stalled)
	}
}

func TestLinkOutageBlocksCrossNodeMigrations(t *testing.T) {
	cfg := HardwareChickNodes(2)
	// Outage on node 0's egress link for the first 200 us. The first
	// cross-node migration departs near t=0, so it must back off.
	plan := &fault.Plan{
		Links: []fault.LinkFault{{Factor: 0, Start: 0, End: 200 * sim.Microsecond, Nodes: []int{0}}},
	}
	_, counters := runWithPlan(t, cfg, plan, func(*System) CBody {
		return &script{
			func(th *CThread) bool { return th.CMigrateTo(12) }, // node 1
			func(th *CThread) bool { return th.CMigrateTo(0) },
		}
	})
	if counters[0].StalledMigrations == 0 {
		t.Fatal("outbound cross-node migration did not stall during the outage")
	}
	// The return migration (node 1 -> node 0) uses node 1's healthy link.
	if counters[12].StalledMigrations != 0 {
		t.Fatal("node 1's healthy link stalled a migration")
	}
	// Intra-node migrations never touch the link: same plan, intra-node
	// ping-pong, zero fault counters.
	_, intra := runWithPlan(t, cfg, plan, pingPongWorkload(0, 5, 10))
	for i, nc := range intra {
		if nc.StalledMigrations != 0 {
			t.Fatalf("intra-node migration on nodelet %d stalled under a link-only fault", i)
		}
	}
}

func TestLinkDegradationSlowsCrossNodeRun(t *testing.T) {
	cfg := HardwareChickNodes(2)
	body := pingPongWorkload(0, 12, 50)
	base, _ := runWithPlan(t, cfg, nil, body)
	slow, _ := runWithPlan(t, cfg, &fault.Plan{
		Links: []fault.LinkFault{{Factor: 8}},
	}, body)
	if slow <= base {
		t.Fatalf("8x link degradation did not slow cross-node ping-pong: %v vs %v", slow, base)
	}
}

// A fixed (plan, seed) must reproduce bit-identically run over run.
func TestFaultedRunsAreDeterministic(t *testing.T) {
	cfg := HardwareChick()
	plan := &fault.Plan{
		Seed:     7,
		Cores:    []fault.Slowdown{{Factor: 2, Count: 3}},
		Channels: []fault.Slowdown{{Factor: 4, Count: 2}},
		Stalls:   []fault.Stall{{Duration: 20 * sim.Microsecond, Period: 80 * sim.Microsecond}},
	}
	e1, c1 := runWithPlan(t, cfg, plan, pingPongWorkload(0, 5, 60))
	e2, c2 := runWithPlan(t, cfg, plan, pingPongWorkload(0, 5, 60))
	if e1 != e2 {
		t.Fatalf("elapsed differs across identical faulted runs: %v vs %v", e1, e2)
	}
	if !snapshotEqual(c1, c2) {
		t.Fatal("counters differ across identical faulted runs")
	}
}

func TestInjectInvalidPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid plan did not panic")
		}
	}()
	NewSystem(HardwareChick()).InjectFaults(&fault.Plan{
		Cores: []fault.Slowdown{{Factor: 0.5}},
	})
}

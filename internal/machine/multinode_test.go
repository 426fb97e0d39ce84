package machine

import (
	"testing"

	"emuchick/internal/sim"
)

func TestCrossNodeRemoteStoreLatency(t *testing.T) {
	cfg := HardwareChickNodes(2)
	s := NewSystem(cfg)
	intra := s.Mem.AllocLocal(4, 1)  // same node as nodelet 0
	inter := s.Mem.AllocLocal(12, 1) // node 1
	var intraDur, interDur sim.Time
	sc := script(append(
		timed(&intraDur, func(th *CThread) bool { return th.CStore(intra.At(0), 1) }),
		timed(&interDur, func(th *CThread) bool { return th.CStore(inter.At(0), 2) })...))
	_, err := s.Run(&sc)
	if err != nil {
		t.Fatal(err)
	}
	// Posted stores never block for the flight either way.
	if intraDur != interDur {
		t.Fatalf("posted stores should cost the sender equally: %v vs %v", intraDur, interDur)
	}
	if s.Counters.Nodelet(12).RemoteStores != 1 {
		t.Fatal("cross-node store not delivered")
	}
}

func TestCrossNodePingPongSlower(t *testing.T) {
	// Migrating across node cards pays the fabric link and the extra
	// inter-node latency, so a cross-node ping-pong is slower than an
	// intra-node one at a single thread.
	cfg := HardwareChickNodes(2)
	run := func(b int) sim.Time {
		s := NewSystem(cfg)
		var sc script
		for i := 0; i < 100; i++ {
			sc = append(sc,
				func(th *CThread) bool { return th.CMigrateTo(b) },
				func(th *CThread) bool { return th.CMigrateTo(0) })
		}
		elapsed, err := s.Run(&sc)
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	intra := run(1)  // nodelet on the same node
	inter := run(12) // nodelet on node 1
	if inter <= intra {
		t.Fatalf("cross-node ping-pong (%v) should be slower than intra-node (%v)", inter, intra)
	}
}

func TestFullSpeed64NodeletTopology(t *testing.T) {
	s := NewSystem(FullSpeed(8))
	if s.Nodelets() != 64 {
		t.Fatalf("nodelets = %d", s.Nodelets())
	}
	arr := s.Mem.AllocStriped(64)
	sc := loadAll(arr.At, 64) // touch every nodelet across all 8 nodes
	_, err := s.Run(&sc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters.TotalMigrations() != 63 {
		t.Fatalf("migrations = %d, want 63", s.Counters.TotalMigrations())
	}
	// Crossing 8 nodes uses 7 node boundaries' fabric links at least once.
	links := 0
	for nd := 0; nd < 8; nd++ {
		if s.links[nd].Ops() > 0 {
			links++
		}
	}
	if links < 7 {
		t.Fatalf("only %d fabric links used", links)
	}
}

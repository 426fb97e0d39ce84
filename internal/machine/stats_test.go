package machine

import (
	"testing"

	"emuchick/internal/sim"
)

func TestServiceCallRoundTrip(t *testing.T) {
	s := NewSystem(HardwareChick())
	var dur sim.Time
	sc := script(timed(&dur, func(th *CThread) bool { return th.CServiceCall(3000) })) // 10 us at 300 MHz
	elapsed, err := s.Run(&sc)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*serviceQueueLatency + s.stationaryClock.Cycles(3000)
	if dur != want {
		t.Fatalf("service call took %v, want %v", dur, want)
	}
	if elapsed != dur {
		t.Fatalf("elapsed %v != call duration %v", elapsed, dur)
	}
	if s.Counters.Nodelet(0).ServiceCalls != 1 {
		t.Fatal("service call not counted")
	}
}

func TestServiceCallsSerializeOnStationaryCore(t *testing.T) {
	s := NewSystem(HardwareChick())
	var sc script
	for i := 0; i < 4; i++ {
		sc = append(sc, func(th *CThread) bool {
			return th.CSpawn(&script{func(c *CThread) bool { return c.CServiceCall(30000) }}) // 100 us each
		})
	}
	sc = append(sc, (*CThread).CSync)
	elapsed, err := s.Run(&sc)
	if err != nil {
		t.Fatal(err)
	}
	// Four 100 us requests share one stationary core: >= 400 us.
	if elapsed < 400*sim.Microsecond {
		t.Fatalf("stationary core did not serialize: %v", elapsed)
	}
}

func TestServiceCallNegativePanics(t *testing.T) {
	s := NewSystem(HardwareChick())
	_, err := s.Run(&script{func(th *CThread) bool {
		defer func() {
			if recover() == nil {
				t.Error("negative cycles did not panic")
			}
		}()
		return th.CServiceCall(-1)
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsReflectActivity(t *testing.T) {
	s := NewSystem(HardwareChick())
	arr := s.Mem.AllocLocal(0, 64)
	sc := append(loadAll(arr.At, 64), func(th *CThread) bool { return th.CMigrateTo(1) })
	elapsed, err := s.Run(&sc)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats(elapsed)
	if len(st.Nodelets) != 8 || len(st.Nodes) != 1 {
		t.Fatalf("stats shape: %d nodelets, %d nodes", len(st.Nodelets), len(st.Nodes))
	}
	if st.Nodelets[0].ChannelOps != 64 {
		t.Fatalf("channel ops = %d", st.Nodelets[0].ChannelOps)
	}
	if st.Nodelets[0].ChannelUtilization <= 0 {
		t.Fatal("no channel utilization recorded")
	}
	if st.Nodelets[1].ChannelOps != 0 {
		t.Fatal("idle nodelet has channel ops")
	}
	if st.Nodes[0].Migrations != 1 {
		t.Fatalf("migration ops = %d", st.Nodes[0].Migrations)
	}
	if st.Nodelets[0].ResidentPeak < 1 {
		t.Fatal("resident peak missing")
	}
}

func TestBottleneckHint(t *testing.T) {
	// Migration-saturated run: ping-pong style.
	s := NewSystem(HardwareChick())
	var root script
	for k := 0; k < 32; k++ {
		var pingPong script
		for i := 0; i < 50; i++ {
			pingPong = append(pingPong,
				func(c *CThread) bool { return c.CMigrateTo(1) },
				func(c *CThread) bool { return c.CMigrateTo(0) })
		}
		root = append(root, func(th *CThread) bool { return th.CSpawn(&pingPong) })
	}
	root = append(root, (*CThread).CSync)
	elapsed, err := s.Run(&root)
	if err != nil {
		t.Fatal(err)
	}
	if hint := s.Stats(elapsed).BottleneckHint(); hint != "migration-engine" {
		t.Fatalf("ping-pong bottleneck = %q", hint)
	}

	// Compute-saturated run.
	s2 := NewSystem(HardwareChick())
	elapsed2, err := s2.Run(&script{compute(100000)})
	if err != nil {
		t.Fatal(err)
	}
	if hint := s2.Stats(elapsed2).BottleneckHint(); hint != "gossamer-core" {
		t.Fatalf("compute bottleneck = %q", hint)
	}
}

func TestStatsAggregates(t *testing.T) {
	s := NewSystem(HardwareChick())
	arr := s.Mem.AllocStriped(128)
	sc := loadAll(arr.At, 128)
	elapsed, err := s.Run(&sc)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats(elapsed)
	if st.MeanChannel() <= 0 {
		t.Fatal("MeanChannel = 0 for a memory-bound run")
	}
	if st.MaxCore() <= 0 {
		t.Fatal("MaxCore = 0")
	}
	if empty := (SystemStats{}); empty.MeanChannel() != 0 || empty.MaxCore() != 0 {
		t.Fatal("empty stats not zero")
	}
}

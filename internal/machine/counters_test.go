package machine

import "testing"

func TestCounterAggregates(t *testing.T) {
	s := NewSystem(HardwareChick())
	arr := s.Mem.AllocStriped(64)
	remote := s.Mem.AllocLocal(3, 2)
	child := append(loadAll(arr.At, 16), // striped walk: migrations + local reads
		func(c *CThread) bool { return c.CStore(remote.At(0), 7) }, // posted remote store
		func(c *CThread) bool { return c.CRemoteAdd(remote.At(1), 1) })
	_, err := s.Run(&script{func(th *CThread) bool { return th.CSpawnAt(2, &child) }, (*CThread).CSync})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counters
	if c.Nodelets() != 8 {
		t.Fatalf("Nodelets = %d", c.Nodelets())
	}
	// Every spawn (root + child) appears in per-nodelet totals.
	if c.TotalSpawns() != c.ThreadsSpawned {
		t.Fatalf("TotalSpawns %d != ThreadsSpawned %d", c.TotalSpawns(), c.ThreadsSpawned)
	}
	// Word traffic: 16 reads + 1 remote store + 1 atomic.
	if c.TotalWords() != 18 {
		t.Fatalf("TotalWords = %d", c.TotalWords())
	}
	if c.TotalBytes() != 18*8 {
		t.Fatalf("TotalBytes = %d", c.TotalBytes())
	}
	if c.TotalMigrations() == 0 {
		t.Fatal("striped walk produced no migrations")
	}
}

func TestSystemAccessors(t *testing.T) {
	s := NewSystem(HardwareChick())
	if s.Nodelets() != 8 {
		t.Fatalf("Nodelets = %d", s.Nodelets())
	}
	if s.Clock().Hz() != 150e6 {
		t.Fatalf("Clock = %d Hz", s.Clock().Hz())
	}
}

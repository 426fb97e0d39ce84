package stinger

import (
	"testing"
	"testing/quick"

	"emuchick/internal/machine"
	"emuchick/internal/workload"
)

func newGraph(t *testing.T, placement Placement) (*machine.System, *Graph) {
	t.Helper()
	sys := machine.NewSystem(machine.HardwareChick())
	g, err := New(sys, Config{
		Vertices: 64, EdgesPerBlock: 4, Placement: placement, PoolBlocksPerNodelet: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, g
}

func TestBuildInsertAndWalk(t *testing.T) {
	_, g := newGraph(t, PlaceAtVertex)
	edges := []Edge{{0, 1, 10}, {0, 2, 20}, {0, 3, 30}, {0, 4, 40}, {0, 5, 50}, {7, 0, 5}}
	for _, e := range edges {
		if err := g.BuildInsert(e); err != nil {
			t.Fatal(err)
		}
	}
	if g.Degree(0) != 5 || g.Degree(7) != 1 || g.Degree(3) != 0 {
		t.Fatalf("degrees: %d %d %d", g.Degree(0), g.Degree(7), g.Degree(3))
	}
	var got []Edge
	g.Walk(0, func(dst int, w uint64) { got = append(got, Edge{0, dst, w}) })
	if len(got) != 5 {
		t.Fatalf("walk found %d edges", len(got))
	}
	for i, e := range got {
		if e != edges[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, e, edges[i])
		}
	}
}

func TestInsertTimedMatchesBuildInsert(t *testing.T) {
	sysA, a := newGraph(t, PlaceAtVertex)
	_, b := newGraph(t, PlaceAtVertex)
	rng := workload.NewRNG(7)
	var edges []Edge
	for i := 0; i < 200; i++ {
		edges = append(edges, Edge{rng.Intn(64), rng.Intn(64), rng.Uint64() % 100})
	}
	for _, e := range edges {
		if err := b.BuildInsert(e); err != nil {
			t.Fatal(err)
		}
	}
	// Timed inserts, partitioned by source so per-vertex order is
	// preserved and concurrent appenders never share a chain.
	inserters := make([]machine.CBody, 8)
	for w := range inserters {
		var mine []Edge
		for _, e := range edges {
			if e.Src%8 == w {
				mine = append(mine, e)
			}
		}
		inserters[w] = &inserter{t: t, g: a, edges: mine}
	}
	if _, err := sysA.Run(&drives{fanAt(inserters, []int{0, 1, 2, 3, 4, 5, 6, 7})}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 64; v++ {
		if a.Degree(v) != b.Degree(v) {
			t.Fatalf("vertex %d degree %d vs %d", v, a.Degree(v), b.Degree(v))
		}
		var wa, wb []Edge
		a.Walk(v, func(dst int, w uint64) { wa = append(wa, Edge{v, dst, w}) })
		b.Walk(v, func(dst int, w uint64) { wb = append(wb, Edge{v, dst, w}) })
		if len(wa) != len(wb) {
			t.Fatalf("vertex %d edge counts differ", v)
		}
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("vertex %d edge %d: %+v vs %+v", v, i, wa[i], wb[i])
			}
		}
	}
}

func TestWalkTimedVisitsAllEdges(t *testing.T) {
	sys, g := newGraph(t, PlaceAtVertex)
	rng := workload.NewRNG(9)
	want := map[int]uint64{}
	for i := 0; i < 300; i++ {
		e := Edge{rng.Intn(64), rng.Intn(64), rng.Uint64()%50 + 1}
		if err := g.BuildInsert(e); err != nil {
			t.Fatal(err)
		}
		want[e.Src] += e.Weight
	}
	got := make([]uint64, 64)
	walkers := make([]machine.CBody, 16)
	at := make([]int, 16)
	for w := range walkers {
		walkers[w], at[w] = &summer{g: g, v: w, step: 16, sums: got}, w%8
	}
	if _, err := sys.Run(&drives{fanAt(walkers, at)}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 64; v++ {
		if got[v] != want[v] {
			t.Fatalf("vertex %d weight sum %d, want %d", v, got[v], want[v])
		}
	}
}

func TestPlacementDrivesMigrations(t *testing.T) {
	walkAll := func(placement Placement) uint64 {
		sys, g := newGraph(t, placement)
		rng := workload.NewRNG(11)
		for i := 0; i < 400; i++ {
			if err := g.BuildInsert(Edge{rng.Intn(64), rng.Intn(64), 1}); err != nil {
				t.Fatal(err)
			}
		}
		walkers := make([]machine.CBody, 8)
		for w := range walkers {
			walkers[w] = &summer{g: g, v: w, step: 8, sums: make([]uint64, 64)}
		}
		if _, err := sys.Run(&drives{fanAt(walkers, []int{0, 1, 2, 3, 4, 5, 6, 7})}); err != nil {
			t.Fatal(err)
		}
		return sys.Counters.TotalMigrations()
	}
	clustered := walkAll(PlaceAtVertex)
	scattered := walkAll(PlaceRoundRobin)
	if clustered != 0 {
		t.Fatalf("at_vertex placement migrated %d times", clustered)
	}
	if scattered == 0 {
		t.Fatal("round_robin placement should migrate")
	}
}

func TestPoolExhaustion(t *testing.T) {
	sys := machine.NewSystem(machine.HardwareChick())
	g, err := New(sys, Config{Vertices: 8, EdgesPerBlock: 2, Placement: PlaceAtVertex, PoolBlocksPerNodelet: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0's pool (nodelet 0) holds one block = 2 edges.
	if err := g.BuildInsert(Edge{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.BuildInsert(Edge{0, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.BuildInsert(Edge{0, 3, 1}); err == nil {
		t.Fatal("pool exhaustion not reported")
	}
}

func TestConfigAndEdgeValidation(t *testing.T) {
	sys := machine.NewSystem(machine.HardwareChick())
	if _, err := New(sys, Config{Vertices: 0, EdgesPerBlock: 1, PoolBlocksPerNodelet: 1}); err == nil {
		t.Fatal("zero vertices accepted")
	}
	_, g := newGraph(t, PlaceAtVertex)
	if err := g.BuildInsert(Edge{-1, 0, 1}); err == nil {
		t.Fatal("negative src accepted")
	}
	if err := g.BuildInsert(Edge{0, 64, 1}); err == nil {
		t.Fatal("dst out of range accepted")
	}
	if PlaceAtVertex.String() != "at_vertex" || PlaceRoundRobin.String() != "round_robin" {
		t.Fatal("placement names wrong")
	}
	if Placement(9).String() == "" {
		t.Fatal("unknown placement String empty")
	}
}

// Property: for any edge batch, walking every vertex recovers exactly the
// inserted multiset per source, in insertion order.
func TestInsertWalkRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%150) + 1
		sys := machine.NewSystem(machine.HardwareChick())
		g, err := New(sys, Config{
			Vertices: 32, EdgesPerBlock: 3, Placement: PlaceRoundRobin, PoolBlocksPerNodelet: 128,
		})
		if err != nil {
			return false
		}
		rng := workload.NewRNG(seed)
		perSrc := map[int][]Edge{}
		for i := 0; i < n; i++ {
			e := Edge{rng.Intn(32), rng.Intn(32), rng.Uint64() % 1000}
			if err := g.BuildInsert(e); err != nil {
				return false
			}
			perSrc[e.Src] = append(perSrc[e.Src], e)
		}
		for v := 0; v < 32; v++ {
			var got []Edge
			g.Walk(v, func(dst int, w uint64) { got = append(got, Edge{v, dst, w}) })
			if len(got) != len(perSrc[v]) || int(g.Degree(v)) != len(got) {
				return false
			}
			for i := range got {
				if got[i] != perSrc[v][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

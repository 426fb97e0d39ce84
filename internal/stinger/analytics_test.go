package stinger

import (
	"testing"
	"testing/quick"

	"emuchick/internal/machine"
	"emuchick/internal/workload"
)

// refBFS is a host-side reference breadth-first search over the graph's
// functional adjacency.
func refBFS(g *Graph, src int) []int64 {
	dist := make([]int64, g.Vertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.Walk(v, func(dst int, _ uint64) {
			if dist[dst] == -1 {
				dist[dst] = dist[v] + 1
				queue = append(queue, dst)
			}
		})
	}
	return dist
}

// refComponents computes weakly-connected components with union-find.
func refComponents(g *Graph) []int {
	parent := make([]int, g.Vertices())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < g.Vertices(); v++ {
		g.Walk(v, func(dst int, _ uint64) {
			a, b := find(v), find(dst)
			if a != b {
				parent[a] = b
			}
		})
	}
	roots := make([]int, g.Vertices())
	for v := range roots {
		roots[v] = find(v)
	}
	return roots
}

func randomGraph(t *testing.T, sys *machine.System, vertices, edges int, seed uint64) *Graph {
	t.Helper()
	g, err := New(sys, Config{
		Vertices: vertices, EdgesPerBlock: 3,
		Placement: PlaceAtVertex, PoolBlocksPerNodelet: edges + vertices,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(seed)
	for i := 0; i < edges; i++ {
		if err := g.BuildInsert(Edge{rng.Intn(vertices), rng.Intn(vertices), 1}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// runBFS runs a BFS from src as the root threadlet's only work.
func runBFS(t *testing.T, sys *machine.System, g *Graph, src, workers int) []int64 {
	t.Helper()
	bfs, err := BFS(g, src, workers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(&drives{bfs}); err != nil {
		t.Fatal(err)
	}
	return bfs.Dist()
}

func TestBFSMatchesReference(t *testing.T) {
	sys := machine.NewSystem(machine.HardwareChick())
	g := randomGraph(t, sys, 48, 120, 3)
	want := refBFS(g, 0)
	got := runBFS(t, sys, g, 0, 16)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestBFSLinearChain(t *testing.T) {
	sys := machine.NewSystem(machine.HardwareChick())
	g, err := New(sys, Config{Vertices: 20, EdgesPerBlock: 2, Placement: PlaceAtVertex, PoolBlocksPerNodelet: 32})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 19; v++ {
		if err := g.BuildInsert(Edge{v, v + 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	got := runBFS(t, sys, g, 0, 8)
	for v := 0; v < 20; v++ {
		if got[v] != int64(v) {
			t.Fatalf("chain dist[%d] = %d", v, got[v])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	sys := machine.NewSystem(machine.HardwareChick())
	g, err := New(sys, Config{Vertices: 8, EdgesPerBlock: 2, Placement: PlaceAtVertex, PoolBlocksPerNodelet: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.BuildInsert(Edge{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	got := runBFS(t, sys, g, 0, 4)
	if got[0] != 0 || got[1] != 1 || got[7] != -1 {
		t.Fatalf("dist = %v", got)
	}
}

func TestComponentsMatchReference(t *testing.T) {
	sys := machine.NewSystem(machine.HardwareChick())
	g := randomGraph(t, sys, 40, 50, 9)
	wantRoots := refComponents(g)
	cc, err := Components(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(&drives{cc}); err != nil {
		t.Fatal(err)
	}
	got := cc.Labels()
	// Labels must induce the same partition as union-find roots.
	for a := 0; a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			sameRef := wantRoots[a] == wantRoots[b]
			sameGot := got[a] == got[b]
			if sameRef != sameGot {
				t.Fatalf("vertices %d,%d: reference same=%v, got same=%v", a, b, sameRef, sameGot)
			}
		}
	}
}

// Property: BFS distances match the reference for random graphs and
// sources.
func TestBFSProperty(t *testing.T) {
	f := func(seed uint64, srcRaw uint8) bool {
		sys := machine.NewSystem(machine.HardwareChick())
		g, err := New(sys, Config{
			Vertices: 24, EdgesPerBlock: 2, Placement: PlaceRoundRobin, PoolBlocksPerNodelet: 128,
		})
		if err != nil {
			return false
		}
		rng := workload.NewRNG(seed)
		for i := 0; i < 40; i++ {
			if err := g.BuildInsert(Edge{rng.Intn(24), rng.Intn(24), 1}); err != nil {
				return false
			}
		}
		src := int(srcRaw) % 24
		want := refBFS(g, src)
		bfs, err := BFS(g, src, 8)
		if err != nil {
			return false
		}
		if _, err := sys.Run(&drives{bfs}); err != nil {
			return false
		}
		got := bfs.Dist()
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyticsRejectBadArguments: a BFS or components pass without
// workers would return an unexplored result, and an out-of-range BFS
// source has no distance cell, so the constructors refuse both.
func TestAnalyticsRejectBadArguments(t *testing.T) {
	sys := machine.NewSystem(machine.HardwareChick())
	g, err := New(sys, Config{Vertices: 16, EdgesPerBlock: 2, Placement: PlaceAtVertex, PoolBlocksPerNodelet: 16})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 15; v++ {
		if err := g.BuildInsert(Edge{v, v + 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{0, -1} {
		if _, err := BFS(g, 0, workers); err == nil {
			t.Errorf("BFS with %d workers accepted", workers)
		}
		if _, err := Components(g, workers); err == nil {
			t.Errorf("Components with %d workers accepted", workers)
		}
	}
	for _, src := range []int{-1, 16} {
		if _, err := BFS(g, src, 4); err == nil {
			t.Errorf("BFS from source %d accepted", src)
		}
	}
	// One worker still explores the whole chain.
	for v, d := range runBFS(t, sys, g, 0, 1) {
		if d != int64(v) {
			t.Fatalf("one-worker chain dist[%d] = %d", v, d)
		}
	}
}

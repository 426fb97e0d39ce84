package emuchick

import "testing"

func TestFacadeGraph(t *testing.T) {
	sys := NewSystem(HardwareChick())
	g, err := NewGraph(sys, GraphConfig{
		Vertices: 16, EdgesPerBlock: 2, Placement: PlaceAtVertex, PoolBlocksPerNodelet: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 15; v++ {
		if err := g.BuildInsert(GraphEdge{Src: v, Dst: v + 1, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	bfs, err := BFS(g, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := Components(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(&drives{bfs, cc}); err != nil {
		t.Fatal(err)
	}
	dist, labels := bfs.Dist(), cc.Labels()
	if dist[15] != 15 {
		t.Fatalf("chain BFS dist[15] = %d", dist[15])
	}
	for v := 1; v < 16; v++ {
		if labels[v] != labels[0] {
			t.Fatalf("chain not one component: labels[%d]=%d", v, labels[v])
		}
	}
}

func TestFacadeTensor(t *testing.T) {
	res, err := RunTTV(HardwareChick(), TTVConfig{
		Dims: [3]int{8, 8, 8}, NNZ: 64, Seed: 1, Layout: TensorLayout2D, GrainNNZ: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 64*32 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
}

func TestFacadeMTTKRP(t *testing.T) {
	res, err := RunMTTKRP(HardwareChick(), MTTKRPConfig{
		Dims: [3]int{8, 8, 8}, NNZ: 64, Rank: 2, Seed: 3,
		Layout: TensorLayout2D, GrainNNZ: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 64*(2+3*2)*8 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
}

func TestFacadeReducer(t *testing.T) {
	sys := NewSystem(HardwareChick())
	red := NewSumReducer(sys)
	workers := NewWorkers(8, 16, SerialRemoteSpawn, func(id int) Body {
		return &script{func(w *Thread) bool { return red.Add(w, uint64(id)) }}
	})
	gather := red.Reduce()
	if _, err := sys.Run(&drives{workers, gather}); err != nil {
		t.Fatal(err)
	}
	total := gather.Total()
	if total != 120 {
		t.Fatalf("reduced %d, want 120", total)
	}
}

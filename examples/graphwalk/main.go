// Graphwalk: the streaming-graph scenario that motivates the paper
// (section I — STINGER-style analysis). A dynamic graph stores adjacency
// as chains of fixed-size edge blocks; under churn those blocks fragment
// across memory. The example builds the same graph under the stinger
// package's two placement policies —
//
//   - at_vertex: a vertex's blocks stay on its home nodelet,
//   - round_robin: blocks scatter across nodelets (worst-case
//     fragmentation of a shared pool),
//
// then runs two timed phases on the Emu model: a streaming insertion batch
// and a full traversal (per-vertex weight sums). The traversal is the
// pointer-chasing benchmark in application form: the Emu's bandwidth
// barely moves under fragmentation, but every scattered block hop costs a
// thread migration.
package main

import (
	"fmt"
	"log"

	"emuchick"
	"emuchick/internal/workload"
)

const (
	vertices   = 2048
	meanDegree = 8
	workers    = 256
)

// buildEdges generates a deterministic R-MAT edge stream — the skewed
// degree distribution streaming-graph benchmarks use.
func buildEdges() []emuchick.GraphEdge {
	rng := workload.NewRNG(99)
	// Mildly skewed R-MAT: enough irregularity to be graph-like without a
	// few hub vertices serializing the per-vertex walk and hiding the
	// fragmentation effect this example isolates.
	cfg := workload.RMATConfig{Scale: 11, Edges: 2048 * meanDegree, A: 0.3, B: 0.25, C: 0.25, D: 0.2}
	rmat, err := workload.RMAT(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	edges := make([]emuchick.GraphEdge, len(rmat))
	for i, e := range rmat {
		edges[i] = emuchick.GraphEdge{Src: e.Src, Dst: e.Dst, Weight: rng.Uint64()%100 + 1}
	}
	return edges
}

type phaseResult struct {
	insert     emuchick.Time
	traverse   emuchick.Time
	migrations uint64
}

// phases is the main threadlet: it times the insertion fan-out, then the
// walk tree.
type phases struct{ insert, traverse *emuchick.Timed }

func (r *phases) Step(t *emuchick.Thread) bool {
	return !r.insert.Drive(t) && !r.traverse.Drive(t)
}

// inserter appends the edges whose source is w mod 64, in stream order.
type inserter struct {
	g     *emuchick.Graph
	edges []emuchick.GraphEdge
	w, i  int
	in    *emuchick.GraphInsert
}

func (b *inserter) Step(t *emuchick.Thread) bool {
	for {
		if b.in != nil {
			if b.in.Drive(t) {
				return false
			}
			if err := b.in.Err(); err != nil {
				log.Fatal(err)
			}
			b.in = nil
		}
		for b.i < len(b.edges) && b.edges[b.i].Src%64 != b.w {
			b.i++
		}
		if b.i == len(b.edges) {
			return true
		}
		b.in = b.g.InsertTimed(b.edges[b.i])
		b.i++
	}
}

// walker sums the edge weights of vertices v, v+workers, ...
type walker struct {
	g    *emuchick.Graph
	v    int
	sums []uint64
	walk *emuchick.GraphWalk
}

func (b *walker) Step(t *emuchick.Thread) bool {
	for {
		if b.walk != nil {
			if b.walk.Drive(t) {
				return false
			}
			b.walk = nil
			b.v += workers
		}
		if b.v >= vertices {
			return true
		}
		v := b.v
		b.walk = b.g.WalkTimed(v, func(_ *emuchick.Thread, _ int, w uint64) bool {
			b.sums[v] += w
			return true
		})
	}
}

func runPhases(placement emuchick.Placement, edges []emuchick.GraphEdge) phaseResult {
	sys := emuchick.NewSystem(emuchick.HardwareChick())
	g, err := emuchick.NewGraph(sys, emuchick.GraphConfig{
		Vertices: vertices, EdgesPerBlock: 4,
		Placement: placement, PoolBlocksPerNodelet: len(edges),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Reference sums for verification.
	want := make(map[int]uint64)
	for _, e := range edges {
		want[e.Src] += e.Weight
	}

	var out phaseResult
	sums := make([]uint64, vertices)
	// Phase 1: streaming insertion, partitioned by source vertex so no two
	// threads append to the same chain; inserters go round-robin over the
	// nodelets.
	inserters := &emuchick.Fanout{}
	for w := 0; w < 64; w++ {
		inserters.Add(w%8, &inserter{g: g, edges: edges, w: w})
	}
	// Phase 2: full traversal.
	walkers := emuchick.NewWorkers(8, workers, emuchick.RecursiveRemoteSpawn, func(id int) emuchick.Body {
		return &walker{g: g, v: id, sums: sums}
	})
	root := &phases{
		insert:   emuchick.NewTimed(inserters, &out.insert),
		traverse: emuchick.NewTimed(walkers, &out.traverse),
	}
	if _, err := sys.Run(root); err != nil {
		log.Fatal(err)
	}
	for v := 0; v < vertices; v++ {
		if sums[v] != want[v] {
			log.Fatalf("%v: vertex %d sum %d, want %d", placement, v, sums[v], want[v])
		}
	}
	out.migrations = sys.Counters.TotalMigrations()
	return out
}

func main() {
	edges := buildEdges()
	clustered := runPhases(emuchick.PlaceAtVertex, edges)
	fragmented := runPhases(emuchick.PlaceRoundRobin, edges)

	bytes := float64(len(edges) * 16)
	fmt.Printf("graph: %d vertices, %d edges, 4-edge blocks, %d walk threads\n\n",
		vertices, len(edges), workers)
	fmt.Printf("%-12s %12s %12s %15s %12s\n", "placement", "insert", "traverse", "walk bandwidth", "migrations")
	for _, row := range []struct {
		name string
		r    phaseResult
	}{{"at_vertex", clustered}, {"round_robin", fragmented}} {
		fmt.Printf("%-12s %12v %12v %12.1f MB/s %12d\n",
			row.name, row.r.insert, row.r.traverse,
			bytes/row.r.traverse.Seconds()/1e6, row.r.migrations)
	}
	fmt.Printf("\nfragmentation cost: traversal %.2fx slower, %d extra migrations\n",
		fragmented.traverse.Seconds()/clustered.traverse.Seconds(),
		fragmented.migrations-clustered.migrations)
	fmt.Println("\nThis is the pointer-chasing result (Figs. 6 and 8) in application")
	fmt.Println("form: a cache-less migratory-thread machine degrades gracefully under")
	fmt.Println("the memory fragmentation a streaming graph accumulates.")
}

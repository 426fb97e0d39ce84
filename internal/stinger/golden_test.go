package stinger

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
	"emuchick/internal/workload"
)

// Golden digests for the timed graph kernels: the SHA-256 of a run's trace
// event stream, elapsed time, per-nodelet counters and functional results
// (walk sums, BFS distances, component labels). They were recorded from the
// goroutine implementations of InsertTimed, WalkTimed, BFS and Components,
// so the continuation forms are held to the old event streams bit for bit.

type eventRecorder struct{ events []trace.Event }

func (r *eventRecorder) Event(e trace.Event) { r.events = append(r.events, e) }
func (r *eventRecorder) Sample(trace.Sample) {}

// graphDigest folds one finished run into its golden digest.
func graphDigest(elapsed sim.Time, events []trace.Event, s *machine.System, results ...any) string {
	h := sha256.New()
	for _, e := range events {
		fmt.Fprintln(h, int64(e.Time), int64(e.End), int(e.Kind), e.Nodelet, e.Target, uint64(e.Addr))
	}
	fmt.Fprintf(h, "%d %+v\n", int64(elapsed), s.Counters.Snapshot())
	for _, r := range results {
		fmt.Fprintf(h, "R %v\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

var graphGoldenDigests = map[Placement]string{
	PlaceAtVertex:   "023de6a838b53fa860bc7c849a9a8420647cc20af0ff00fe3393c328fa875ba9",
	PlaceRoundRobin: "236411c8ed0aec3d8cb3b8de1be1a71f0fb6cbeeb4e14c94394225ce2c35e9bd",
}

// goldenEdges is the scenario's edge stream: 160 seeded edges over 48
// vertices with uneven weights.
func goldenEdges() []Edge {
	rng := workload.NewRNG(31)
	edges := make([]Edge, 160)
	for i := range edges {
		edges[i] = Edge{rng.Intn(48), rng.Intn(48), rng.Uint64()%50 + 1}
	}
	return edges
}

// TestGraphKernelsGolden runs, in one simulation, a timed insertion phase
// (8 inserters partitioned by source), a timed walk phase (6 walkers
// summing weights), a BFS from vertex 5 with 6 workers, and a components
// pass with 5 workers, under both placement policies.
func TestGraphKernelsGolden(t *testing.T) {
	for _, placement := range []Placement{PlaceAtVertex, PlaceRoundRobin} {
		t.Run(placement.String(), func(t *testing.T) {
			sys := machine.NewSystem(machine.HardwareChick())
			rec := &eventRecorder{}
			sys.Attach(rec)
			g, err := New(sys, Config{Vertices: 48, EdgesPerBlock: 3, Placement: placement, PoolBlocksPerNodelet: 128})
			if err != nil {
				t.Fatal(err)
			}
			edges := goldenEdges()
			sums := make([]uint64, g.Vertices())
			bfs, err := BFS(g, 5, 6)
			if err != nil {
				t.Fatal(err)
			}
			cc, err := Components(g, 5)
			if err != nil {
				t.Fatal(err)
			}
			inserters := make([]machine.CBody, 8)
			for w := range inserters {
				var mine []Edge
				for _, e := range edges {
					if e.Src%8 == w {
						mine = append(mine, e)
					}
				}
				inserters[w] = &inserter{t: t, g: g, edges: mine}
			}
			walkers := make([]machine.CBody, 6)
			for w := range walkers {
				walkers[w] = &summer{g: g, v: w, step: 6, sums: sums}
			}
			elapsed, err := sys.Run(&drives{
				fanAt(inserters, []int{0, 1, 2, 3, 4, 5, 6, 7}),
				fanAt(walkers, []int{0, 3, 6, 1, 4, 7}),
				bfs, cc,
			})
			if err != nil {
				t.Fatal(err)
			}
			dist, labels := bfs.Dist(), cc.Labels()
			for v, d := range refBFS(g, 5) {
				if dist[v] != d {
					t.Fatalf("dist[%d] = %d, want %d", v, dist[v], d)
				}
			}
			got := graphDigest(elapsed, rec.events, sys, sums, dist, labels)
			if want := graphGoldenDigests[placement]; got != want {
				t.Errorf("digest drifted:\n  got  %s\n  want %s", got, want)
			}
		})
	}
}

// drives is a root body that drives each tree to completion in order.
type drives []cilk.Driver

func (d *drives) Step(t *machine.CThread) bool {
	for len(*d) > 0 {
		if (*d)[0].Drive(t) {
			return false
		}
		*d = (*d)[1:]
	}
	return true
}

// fanAt is a fan-out spawning bodies[k] on nodelet at[k], in order.
func fanAt(bodies []machine.CBody, at []int) *cilk.Fanout {
	fan := &cilk.Fanout{}
	for k, b := range bodies {
		fan.Add(at[k], b)
	}
	return fan
}

// inserter appends its edges in order with timed inserts.
type inserter struct {
	t     *testing.T
	g     *Graph
	edges []Edge
	in    *Insert
}

func (b *inserter) Step(th *machine.CThread) bool {
	for {
		if b.in != nil {
			if b.in.Drive(th) {
				return false
			}
			if err := b.in.Err(); err != nil {
				b.t.Error(err)
			}
			b.in = nil
		}
		if len(b.edges) == 0 {
			return true
		}
		b.in = b.g.InsertTimed(b.edges[0])
		b.edges = b.edges[1:]
	}
}

// summer walks vertices v, v+step, ... summing each one's edge weights.
type summer struct {
	g       *Graph
	v, step int
	sums    []uint64
	walk    *WalkRun
}

func (b *summer) Step(th *machine.CThread) bool {
	for {
		if b.walk != nil {
			if b.walk.Drive(th) {
				return false
			}
			b.walk = nil
			b.v += b.step
		}
		if b.v >= b.g.Vertices() {
			return true
		}
		v := b.v
		b.walk = b.g.WalkTimed(v, func(_ *machine.CThread, _ int, w uint64) bool {
			b.sums[v] += w
			return true
		})
	}
}

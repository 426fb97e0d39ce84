package stinger

import (
	"fmt"

	"emuchick/internal/cilk"
	"emuchick/internal/machine"
	"emuchick/internal/memsys"
)

// Graph analytics kernels in the style the paper's motivation names
// (STINGER's breadth-first search and connectivity). Both keep their
// per-vertex state (distances, labels) in striped simulated memory and do
// all per-vertex work with timed operations; only the level/iteration
// bookkeeping (frontier lists, convergence flags) is host-side, standing
// in for the runtime's work-queues. Each is built by a constructor and run
// from a kernel threadlet's Step as a cilk.Driver.

// unvisited marks a vertex not yet reached by BFS.
const unvisited = ^uint64(0)

// BFSRun is a level-synchronous parallel breadth-first search in progress.
type BFSRun struct {
	g        *Graph
	workers  int
	dist     memsys.Striped
	frontier []int
	next     [][]int
	inNext   []bool
	level    uint64
	active   int
	fan      *cilk.Fanout // the level's workers
	phase    uint8        // 0 level start, 1 level running, 2 done
}

// BFS prepares hop distances from src with a level-synchronous parallel
// expansion: each level's frontier is partitioned across worker threadlets
// spawned at their vertices' home nodelets; neighbour distance checks use
// memory-side atomics (no migration) and distance writes are posted stores.
// It allocates the distance array, so it is called before System.Run or
// from a running body. Drive the result from a threadlet and read Dist once
// Drive reports parked=false.
func BFS(g *Graph, src, workers int) (*BFSRun, error) {
	if workers < 1 {
		return nil, fmt.Errorf("stinger: BFS needs at least one worker, got %d", workers)
	}
	if src < 0 || src >= g.cfg.Vertices {
		return nil, fmt.Errorf("stinger: BFS source %d out of range [0, %d)", src, g.cfg.Vertices)
	}
	sys := g.sys
	dist := sys.Mem.AllocStriped(g.cfg.Vertices)
	for v := 0; v < g.cfg.Vertices; v++ {
		sys.Mem.Write(dist.At(v), unvisited)
	}
	sys.Mem.Write(dist.At(src), 0)
	return &BFSRun{g: g, workers: workers, dist: dist, frontier: []int{src},
		inNext: make([]bool, g.cfg.Vertices)}, nil
}

// Drive advances the search; see cilk.Driver for the protocol.
func (b *BFSRun) Drive(t *machine.CThread) (parked bool) {
	for {
		switch b.phase {
		case 0:
			if len(b.frontier) == 0 {
				b.phase = 2
				continue
			}
			// Partition the frontier round-robin over min(workers,
			// |frontier|) threads, each spawned at its first vertex's home
			// nodelet, in nodelet order.
			b.active = min(b.workers, len(b.frontier))
			b.next = make([][]int, b.active)
			groups := make([][]int, b.g.sys.Nodelets())
			for w := 0; w < b.active; w++ {
				nl := b.frontier[w] % b.g.sys.Nodelets()
				groups[nl] = append(groups[nl], w)
			}
			b.fan = &cilk.Fanout{}
			for nl, ws := range groups {
				for _, w := range ws {
					b.fan.Add(nl, newBFSWorker(b, w))
				}
			}
			b.phase = 1
		case 1:
			if b.fan.Drive(t) {
				return true
			}
			b.frontier = b.frontier[:0]
			for _, part := range b.next {
				b.frontier = append(b.frontier, part...)
			}
			for _, v := range b.frontier {
				b.inNext[v] = false
			}
			b.level++
			b.phase = 0
		case 2:
			return false
		}
	}
}

// Dist reads the distance of every vertex (-1 if unreachable).
func (b *BFSRun) Dist() []int64 {
	out := make([]int64, b.g.cfg.Vertices)
	for v := range out {
		d := b.g.sys.Mem.Read(b.dist.At(v))
		if d == unvisited {
			out[v] = -1
		} else {
			out[v] = int64(d)
		}
	}
	return out
}

// bfsWorker expands frontier slots w, w+active, ... of one level.
type bfsWorker struct {
	b       *BFSRun
	w, fi   int
	walk    WalkRun
	walking bool
	vpc     uint8 // visit position: 0 check, 1 checked, 2 stored
}

func newBFSWorker(b *BFSRun, w int) *bfsWorker {
	bw := &bfsWorker{b: b, w: w, fi: w}
	bw.walk = WalkRun{g: b.g, visit: bw.visit}
	return bw
}

func (bw *bfsWorker) Step(t *machine.CThread) bool {
	for {
		if bw.walking {
			if bw.walk.Drive(t) {
				return false
			}
			bw.walking = false
			bw.fi += bw.b.active
		}
		if bw.fi >= len(bw.b.frontier) {
			return true
		}
		bw.walk.reset(bw.b.frontier[bw.fi])
		bw.walking = true
	}
}

// visit checks dst with a memory-side atomic read (no migration) and, when
// it is unvisited, posts its distance and queues it for the next level.
func (bw *bfsWorker) visit(t *machine.CThread, dst int, _ uint64) bool {
	b := bw.b
	switch bw.vpc {
	case 0:
		bw.vpc = 1
		if t.CFetchAdd(b.dist.At(dst), 0) {
			return false
		}
		fallthrough
	case 1:
		if t.Value() != unvisited {
			bw.vpc = 0
			return true
		}
		bw.vpc = 2
		if t.CStore(b.dist.At(dst), b.level+1) { // posted
			return false
		}
	}
	bw.vpc = 0
	if !b.inNext[dst] {
		b.inNext[dst] = true
		b.next[bw.w] = append(b.next[bw.w], dst)
	}
	return true
}

// ComponentsRun is a weakly-connected-components labelling in progress.
type ComponentsRun struct {
	g       *Graph
	workers int
	labels  memsys.Striped
	changed []bool
	fan     *cilk.Fanout // the pass's workers
	phase   uint8        // 0 pass start, 1 pass running, 2 done
}

// Components prepares weakly-connected component labels by iterative
// minimum-label propagation over the directed edges (treated as
// undirected): every vertex repeatedly adopts the minimum label among
// itself and its neighbours, and pushes its label to them, until a full
// pass changes nothing. Like BFS it allocates its labels; drive the result
// from a threadlet and read Labels once Drive reports parked=false.
func Components(g *Graph, workers int) (*ComponentsRun, error) {
	if workers < 1 {
		return nil, fmt.Errorf("stinger: Components needs at least one worker, got %d", workers)
	}
	sys := g.sys
	labels := sys.Mem.AllocStriped(g.cfg.Vertices)
	for v := 0; v < g.cfg.Vertices; v++ {
		sys.Mem.Write(labels.At(v), uint64(v))
	}
	return &ComponentsRun{g: g, workers: workers, labels: labels}, nil
}

// Drive advances the labelling; see cilk.Driver for the protocol.
func (c *ComponentsRun) Drive(t *machine.CThread) (parked bool) {
	for {
		switch c.phase {
		case 0:
			c.changed = make([]bool, c.workers)
			c.fan = &cilk.Fanout{}
			for w := 0; w < c.workers; w++ {
				cw := &ccWorker{c: c, w: w, v: w}
				cw.walk = WalkRun{g: c.g, visit: cw.visit}
				c.fan.Add(w%c.g.sys.Nodelets(), cw)
			}
			c.phase = 1
		case 1:
			if c.fan.Drive(t) {
				return true
			}
			c.phase = 2
			for _, ch := range c.changed {
				if ch {
					c.phase = 0
				}
			}
		case 2:
			return false
		}
	}
}

// Labels reads the final label of every vertex.
func (c *ComponentsRun) Labels() []uint64 {
	out := make([]uint64, c.g.cfg.Vertices)
	for v := range out {
		out[v] = c.g.sys.Mem.Read(c.labels.At(v))
	}
	return out
}

// ccWorker runs one pass over vertices w, w+workers, ...
type ccWorker struct {
	c        *ComponentsRun
	w, v     int
	lv, minL uint64
	walk     WalkRun
	pc, vpc  uint8
}

func (cw *ccWorker) Step(t *machine.CThread) bool {
	c := cw.c
	for {
		switch cw.pc {
		case 0:
			if cw.v >= c.g.cfg.Vertices {
				return true
			}
			cw.pc = 1
			if t.CFetchAdd(c.labels.At(cw.v), 0) {
				return false
			}
		case 1:
			cw.lv = t.Value()
			cw.minL = cw.lv
			cw.walk.reset(cw.v)
			cw.pc = 2
		case 2:
			if cw.walk.Drive(t) {
				return false
			}
			cw.pc = 4
			if cw.minL < cw.lv {
				cw.pc = 3
				if t.CStore(c.labels.At(cw.v), cw.minL) {
					return false
				}
			}
		case 3:
			c.changed[cw.w] = true
			cw.pc = 4
		case 4:
			cw.v += c.workers
			cw.pc = 0
		}
	}
}

// visit reads dst's label with a memory-side atomic, folds it into the
// vertex's minimum, and pulls dst down to the vertex's label (posted).
func (cw *ccWorker) visit(t *machine.CThread, dst int, _ uint64) bool {
	c := cw.c
	switch cw.vpc {
	case 0:
		cw.vpc = 1
		if t.CFetchAdd(c.labels.At(dst), 0) {
			return false
		}
		fallthrough
	case 1:
		ld := t.Value()
		if ld < cw.minL {
			cw.minL = ld
		}
		if cw.lv >= ld {
			cw.vpc = 0
			return true
		}
		cw.vpc = 2
		if t.CStore(c.labels.At(dst), cw.lv) {
			return false
		}
	}
	cw.vpc = 0
	c.changed[cw.w] = true
	return true
}

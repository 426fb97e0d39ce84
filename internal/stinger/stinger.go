// Package stinger is a small streaming-graph substrate in the style of
// STINGER, the framework the paper names as the target of its larger goal
// ("to develop a performance-portable, Emu-compatible API for Georgia
// Tech's STINGER"). It stores adjacency as chains of fixed-size edge
// blocks — the structure a dynamic graph maintains under insertions — over
// the Emu model's global address space:
//
//   - the vertex table (head, tail, degree per vertex) is striped across
//     nodelets, so vertex v's metadata lives on nodelet v mod N;
//   - edge blocks come from per-nodelet pools, claimed at simulated time
//     with memory-side FetchAdd on the pool cursor;
//   - the block placement policy is pluggable: PlaceAtVertex keeps a
//     vertex's blocks on its home nodelet, PlaceRoundRobin scatters them
//     (the fragmentation the paper's pointer-chasing benchmark bounds).
//
// Both edge insertion and traversal run as timed kernels on the machine
// model, so the package measures exactly what the paper's section I
// motivates: how a dynamic, fragmented data structure behaves on a
// migratory-thread machine.
package stinger

import (
	"fmt"

	"emuchick/internal/machine"
	"emuchick/internal/memsys"
)

// Placement selects where a vertex's next edge block is allocated.
type Placement int

const (
	// PlaceAtVertex allocates blocks on the vertex's home nodelet, the
	// locality-preserving policy.
	PlaceAtVertex Placement = iota
	// PlaceRoundRobin allocates blocks round-robin across nodelets,
	// modelling a fragmented shared pool.
	PlaceRoundRobin
)

// String names the policy.
func (p Placement) String() string {
	switch p {
	case PlaceAtVertex:
		return "at_vertex"
	case PlaceRoundRobin:
		return "round_robin"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Edge is one directed weighted edge.
type Edge struct {
	Src, Dst int
	Weight   uint64
}

// Config sizes a graph.
type Config struct {
	Vertices      int
	EdgesPerBlock int
	Placement     Placement
	// PoolBlocksPerNodelet pre-sizes each nodelet's block pool; inserts
	// beyond the pool fail. Sizing is a setup decision, as in STINGER.
	PoolBlocksPerNodelet int
}

// Block word layout: [next, count, dst0, w0, dst1, w1, ...].
const (
	blockNext  = 0
	blockCount = 1
	blockHdr   = 2
)

// nilRef marks an empty chain / last block.
const nilRef = ^uint64(0)

// Graph is a streaming graph resident in one machine's address space.
type Graph struct {
	sys *machine.System
	cfg Config

	// Striped vertex table: head, tail, degree.
	head memsys.Striped
	tail memsys.Striped
	deg  memsys.Striped

	// Per-nodelet block pools and their allocation cursors.
	pools   []memsys.Local
	cursors memsys.Striped // one word per nodelet, resident locally

	nextRR int // round-robin placement cursor (host-side policy state)
}

// New allocates the graph's vertex table and block pools. It must run
// before System.Run.
func New(sys *machine.System, cfg Config) (*Graph, error) {
	if cfg.Vertices <= 0 || cfg.EdgesPerBlock <= 0 || cfg.PoolBlocksPerNodelet <= 0 {
		return nil, fmt.Errorf("stinger: invalid config %+v", cfg)
	}
	g := &Graph{
		sys:  sys,
		cfg:  cfg,
		head: sys.Mem.AllocStriped(cfg.Vertices),
		tail: sys.Mem.AllocStriped(cfg.Vertices),
		deg:  sys.Mem.AllocStriped(cfg.Vertices),
	}
	blockWords := blockHdr + 2*cfg.EdgesPerBlock
	for nl := 0; nl < sys.Nodelets(); nl++ {
		g.pools = append(g.pools, sys.Mem.AllocLocal(nl, cfg.PoolBlocksPerNodelet*blockWords))
	}
	g.cursors = sys.Mem.AllocStriped(sys.Nodelets())
	for v := 0; v < cfg.Vertices; v++ {
		sys.Mem.Write(g.head.At(v), nilRef)
		sys.Mem.Write(g.tail.At(v), nilRef)
	}
	return g, nil
}

// Vertices reports the vertex count.
func (g *Graph) Vertices() int { return g.cfg.Vertices }

// blockWords is the word size of one edge block.
func (g *Graph) blockWords() int { return blockHdr + 2*g.cfg.EdgesPerBlock }

// placementNodelet picks the home nodelet for a new block of vertex v.
func (g *Graph) placementNodelet(v int) int {
	switch g.cfg.Placement {
	case PlaceAtVertex:
		return v % g.sys.Nodelets()
	case PlaceRoundRobin:
		nl := g.nextRR
		g.nextRR = (g.nextRR + 1) % g.sys.Nodelets()
		return nl
	default:
		panic("stinger: unknown placement")
	}
}

// InsertTimed prepares one edge append at simulated time, to be driven from
// a kernel threadlet. Concurrent inserts to the SAME source vertex must be
// serialized by the caller (partition batches by source), exactly as
// lock-free STINGER updates partition work.
func (g *Graph) InsertTimed(e Edge) *Insert { return &Insert{g: g, e: e} }

// Insert is a timed edge append in progress and a cilk.Driver: once Drive
// reports parked=false the append has finished and Err holds its outcome.
type Insert struct {
	g        *Graph
	e        Edge
	err      error
	pc       uint8
	nl       int // the new block's nodelet
	tail     uint64
	tailAddr memsys.Addr
	blk      memsys.Addr
	cnt      uint64
}

// Err reports why the insert failed (an out-of-range edge or an exhausted
// block pool), or nil.
func (in *Insert) Err() error { return in.err }

// Drive advances the insert.
func (in *Insert) Drive(t *machine.CThread) (parked bool) {
	g, e := in.g, in.e
	for {
		switch in.pc {
		case 0:
			if e.Src < 0 || e.Src >= g.cfg.Vertices || e.Dst < 0 || e.Dst >= g.cfg.Vertices {
				in.err = fmt.Errorf("stinger: edge %v out of range", e)
				in.pc = 13
				continue
			}
			// Reading the vertex record migrates the thread to v's home nodelet.
			in.pc = 1
			if t.CLoad(g.tail.At(e.Src)) {
				return true
			}
		case 1:
			in.tail = t.Value()
			if in.tail == nilRef {
				in.pc = 3
				continue
			}
			in.tailAddr = memsys.Addr(in.tail)
			in.pc = 2
			if t.CLoad(in.tailAddr.Plus(blockCount)) {
				return true
			}
		case 2:
			in.pc = 8
			if int(t.Value()) >= g.cfg.EdgesPerBlock {
				in.pc = 3
			}
		case 3:
			in.nl = g.placementNodelet(e.Src)
			// Claim a pool slot with a memory-side atomic; no migration.
			in.pc = 4
			if t.CFetchAdd(g.cursors.At(in.nl), 1) {
				return true
			}
		case 4:
			slot := int(t.Value())
			if slot >= g.cfg.PoolBlocksPerNodelet {
				in.err = fmt.Errorf("stinger: nodelet %d block pool exhausted", in.nl)
				in.pc = 13
				continue
			}
			in.blk = g.pools[in.nl].At(slot * g.blockWords())
			// Initialize the block (posted remote stores if the pool is on
			// another nodelet).
			in.pc = 5
			if t.CStore(in.blk.Plus(blockNext), nilRef) {
				return true
			}
		case 5:
			in.pc = 6
			if t.CStore(in.blk.Plus(blockCount), 0) {
				return true
			}
		case 6:
			link := in.tailAddr.Plus(blockNext)
			if in.tail == nilRef {
				link = g.head.At(e.Src)
			}
			in.pc = 7
			if t.CStore(link, uint64(in.blk)) {
				return true
			}
		case 7:
			in.tailAddr = in.blk
			in.pc = 8
			if t.CStore(g.tail.At(e.Src), uint64(in.blk)) {
				return true
			}
		case 8:
			in.pc = 9
			if t.CLoad(in.tailAddr.Plus(blockCount)) { // may migrate to the block's nodelet
				return true
			}
		case 9:
			in.cnt = t.Value()
			in.pc = 10
			if t.CStore(in.tailAddr.Plus(blockHdr+2*int(in.cnt)), uint64(e.Dst)) {
				return true
			}
		case 10:
			in.pc = 11
			if t.CStore(in.tailAddr.Plus(blockHdr+2*int(in.cnt)+1), e.Weight) {
				return true
			}
		case 11:
			in.pc = 12
			if t.CStore(in.tailAddr.Plus(blockCount), in.cnt+1) {
				return true
			}
		case 12:
			in.pc = 13
			if t.CRemoteAdd(g.deg.At(e.Src), 1) {
				return true
			}
		case 13: // done, or failed with err set
			return false
		}
	}
}

// BuildInsert appends one edge functionally at setup time (zero simulated
// time) — for constructing an initial graph before the timed region.
func (g *Graph) BuildInsert(e Edge) error {
	if e.Src < 0 || e.Src >= g.cfg.Vertices || e.Dst < 0 || e.Dst >= g.cfg.Vertices {
		return fmt.Errorf("stinger: edge %v out of range", e)
	}
	mem := g.sys.Mem
	tail := mem.Read(g.tail.At(e.Src))
	var tailAddr memsys.Addr
	needBlock := tail == nilRef
	if !needBlock {
		tailAddr = memsys.Addr(tail)
		needBlock = int(mem.Read(tailAddr.Plus(blockCount))) >= g.cfg.EdgesPerBlock
	}
	if needBlock {
		nl := g.placementNodelet(e.Src)
		slot := mem.Read(g.cursors.At(nl))
		if int(slot) >= g.cfg.PoolBlocksPerNodelet {
			return fmt.Errorf("stinger: nodelet %d block pool exhausted", nl)
		}
		mem.Write(g.cursors.At(nl), slot+1)
		blk := g.pools[nl].At(int(slot) * g.blockWords())
		mem.Write(blk.Plus(blockNext), nilRef)
		mem.Write(blk.Plus(blockCount), 0)
		if tail == nilRef {
			mem.Write(g.head.At(e.Src), uint64(blk))
		} else {
			mem.Write(tailAddr.Plus(blockNext), uint64(blk))
		}
		mem.Write(g.tail.At(e.Src), uint64(blk))
		tailAddr = blk
	}
	cnt := mem.Read(tailAddr.Plus(blockCount))
	mem.Write(tailAddr.Plus(blockHdr+2*int(cnt)), uint64(e.Dst))
	mem.Write(tailAddr.Plus(blockHdr+2*int(cnt)+1), e.Weight)
	mem.Write(tailAddr.Plus(blockCount), cnt+1)
	mem.Write(g.deg.At(e.Src), mem.Read(g.deg.At(e.Src))+1)
	return nil
}

// Degree functionally reads vertex v's degree.
func (g *Graph) Degree(v int) uint64 { return g.sys.Mem.Read(g.deg.At(v)) }

// WalkTimed prepares a traversal of vertex v's chain at simulated time,
// invoking visit for every (dst, weight) pair. The first load migrates the
// threadlet to v's home nodelet; each block hop may migrate again under
// PlaceRoundRobin.
//
// visit may itself issue CThread operations: it returns done=false right
// after one of them reported parked=true, and is then called again with the
// same edge once the threadlet resumes, exactly like a CBody's Step.
func (g *Graph) WalkTimed(v int, visit func(t *machine.CThread, dst int, w uint64) (done bool)) *WalkRun {
	return &WalkRun{g: g, v: v, visit: visit}
}

// WalkRun is a timed traversal in progress and a cilk.Driver: parked=false
// means every edge has been visited.
type WalkRun struct {
	g         *Graph
	v         int
	visit     func(t *machine.CThread, dst int, w uint64) bool
	blk       memsys.Addr
	next, cnt uint64
	e, dst    int
	w         uint64
	pc        uint8
}

// reset points a finished walk at vertex v, so one worker reuses its walk.
func (wr *WalkRun) reset(v int) { wr.v, wr.pc = v, 0 }

// Drive advances the walk.
func (wr *WalkRun) Drive(t *machine.CThread) (parked bool) {
	for {
		switch wr.pc {
		case 0:
			wr.pc = 1
			if t.CLoad(wr.g.head.At(wr.v)) {
				return true
			}
		case 1: // at a chain link: the value read is the next block or nilRef
			addr := t.Value()
			if addr == nilRef {
				wr.pc = 9
				continue
			}
			wr.blk = memsys.Addr(addr)
			wr.pc = 2
			if t.CLoad(wr.blk.Plus(blockNext)) {
				return true
			}
		case 2:
			wr.next = t.Value()
			wr.pc = 3
			if t.CLoad(wr.blk.Plus(blockCount)) {
				return true
			}
		case 3:
			wr.cnt = t.Value()
			wr.e = 0
			wr.pc = 4
		case 4: // edge head
			if wr.e >= int(wr.cnt) {
				wr.pc = 8
				if t.CCompute(8) {
					return true
				}
				continue
			}
			wr.pc = 5
			if t.CLoad(wr.blk.Plus(blockHdr + 2*wr.e)) {
				return true
			}
		case 5:
			wr.dst = int(t.Value())
			wr.pc = 6
			if t.CLoad(wr.blk.Plus(blockHdr + 2*wr.e + 1)) {
				return true
			}
		case 6:
			wr.w = t.Value()
			wr.pc = 7
		case 7:
			if !wr.visit(t, wr.dst, wr.w) {
				return true
			}
			wr.e++
			wr.pc = 4
		case 8: // block done: hop to the next one
			if wr.next == nilRef {
				wr.pc = 9
				continue
			}
			wr.blk = memsys.Addr(wr.next)
			wr.pc = 2
			if t.CLoad(wr.blk.Plus(blockNext)) {
				return true
			}
		case 9:
			return false
		}
	}
}

// Walk functionally traverses vertex v's chain at setup/verification time.
func (g *Graph) Walk(v int, visit func(dst int, w uint64)) {
	mem := g.sys.Mem
	addr := mem.Read(g.head.At(v))
	for addr != nilRef {
		blk := memsys.Addr(addr)
		next := mem.Read(blk.Plus(blockNext))
		cnt := mem.Read(blk.Plus(blockCount))
		for e := 0; e < int(cnt); e++ {
			visit(int(mem.Read(blk.Plus(blockHdr+2*e))), mem.Read(blk.Plus(blockHdr+2*e+1)))
		}
		addr = next
	}
}

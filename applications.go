package emuchick

// Application-level substrates built on the machine model — the two
// domains the paper's introduction motivates (streaming graph analysis in
// the style of STINGER, and ParTI-style sparse tensor computation) plus
// the Cilk-reducer accumulation pattern the paper lists as forthcoming
// toolchain work.

import (
	"emuchick/internal/cilk"
	"emuchick/internal/stinger"
	"emuchick/internal/tensor"
)

// Streaming-graph types (see internal/stinger).
type (
	// Graph is a STINGER-style streaming graph: adjacency as chains of
	// fixed-size edge blocks over the global address space.
	Graph = stinger.Graph
	// GraphConfig sizes a Graph and picks its block-placement policy.
	GraphConfig = stinger.Config
	// GraphEdge is one directed weighted edge.
	GraphEdge = stinger.Edge
	// Placement selects where new edge blocks are allocated.
	Placement = stinger.Placement
	// GraphInsert is a timed insert in progress (Graph.InsertTimed).
	GraphInsert = stinger.Insert
	// GraphWalk is a timed adjacency walk in progress (Graph.WalkTimed).
	GraphWalk = stinger.WalkRun
	// BFSRun is a breadth-first search in progress (BFS).
	BFSRun = stinger.BFSRun
	// ComponentsRun is a component labelling in progress (Components).
	ComponentsRun = stinger.ComponentsRun
)

// Edge-block placement policies.
const (
	// PlaceAtVertex keeps a vertex's blocks on its home nodelet.
	PlaceAtVertex = stinger.PlaceAtVertex
	// PlaceRoundRobin scatters blocks (worst-case pool fragmentation).
	PlaceRoundRobin = stinger.PlaceRoundRobin
)

// NewGraph allocates a streaming graph in the system's address space; call
// it before System.Run.
func NewGraph(sys *System, cfg GraphConfig) (*Graph, error) { return stinger.New(sys, cfg) }

// BFS prepares the level-synchronous parallel breadth-first search over g
// from src with the given worker count; drive it from a running Body.
func BFS(g *Graph, src, workers int) (*BFSRun, error) { return stinger.BFS(g, src, workers) }

// Components prepares weakly-connected component labelling by parallel
// min-label propagation; drive it from a running Body.
func Components(g *Graph, workers int) (*ComponentsRun, error) {
	return stinger.Components(g, workers)
}

// Sparse-tensor types (see internal/tensor).
type (
	// TensorCOO is a 3-mode sparse tensor in coordinate format.
	TensorCOO = tensor.COO
	// TTVConfig parameterizes a tensor-times-vector contraction run.
	TTVConfig = tensor.TTVConfig
	// TensorLayout selects 1D-striped or 2D slice-blocked placement.
	TensorLayout = tensor.Layout
)

// Tensor layouts.
const (
	TensorLayout1D = tensor.Layout1D
	TensorLayout2D = tensor.Layout2D
)

// RunTTV contracts a random tensor's third mode with a vector on a fresh
// machine, verifying against the reference contraction.
func RunTTV(cfg Config, tc TTVConfig) (Result, error) { return tensor.TTVEmu(cfg, tc) }

// MTTKRPConfig parameterizes the CP-ALS bottleneck kernel.
type MTTKRPConfig = tensor.MTTKRPConfig

// RunMTTKRP runs the matricized-tensor-times-Khatri-Rao-product kernel,
// verifying against the host reference.
func RunMTTKRP(cfg Config, mc MTTKRPConfig) (Result, error) { return tensor.MTTKRPEmu(cfg, mc) }

type (
	// SumReducer is the migratory-thread analogue of a Cilk sum reducer:
	// per-nodelet partials updated with local memory-side atomics.
	SumReducer = cilk.SumReducer
	// Reduction is a reducer's final gather in progress
	// (SumReducer.Reduce).
	Reduction = cilk.Reduction
)

// NewSumReducer allocates one partial-sum cell per nodelet; call it before
// System.Run.
func NewSumReducer(sys *System) *SumReducer { return cilk.NewSumReducer(sys) }

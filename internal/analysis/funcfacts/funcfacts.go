// Package funcfacts computes the per-function effect facts that make the
// emulint suite interprocedural. For every function of every package it
// records whether the function — itself or through any call chain the
// call graph can follow — allocates, reads the wall clock, or draws from
// the ambiently-seeded math/rand source. Each effect carries a witness: a
// human-readable chain from the function to the originating site, so a
// transitive diagnostic can say *why*.
//
// The analyzer produces no diagnostics of its own. Its customers are the
// contract analyzers, which consume the same-package Result through
// Pass.ResultOf and cross-package facts through Pass.ImportObjectFact:
//
//   - hotpathalloc: an //emu:hotpath function must not call anything
//     whose Allocates fact is set;
//   - nodeterminism: a deterministic package must not call out-of-scope
//     code whose ReadsWallClock or SeedsRandAmbiently fact is set.
//
// Propagation policy, by edge kind (see internal/analysis/callgraph):
//
//   - Static and FuncValue edges propagate every effect.
//   - Interface edges (CHA-resolved) propagate the behavioral effects —
//     ReadsWallClock, SeedsRandAmbiently — but not Allocates (interface
//     dispatch is a contract boundary: each implementation carries its
//     own hot-path annotation if it needs one).
//   - Unresolved calls propagate nothing: no analysis can see past them.
//
// A function annotated //emu:cold declares itself a cold path — a
// failure exit or a pool-miss slow path whose allocations are amortized
// away or end the run. Its own effects still compute, but Allocates does
// not propagate to callers. The annotation is load-bearing and audited:
// use it only where the enclosing design argues the path is off the
// steady state.
package funcfacts

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"emuchick/internal/analysis"
	"emuchick/internal/analysis/callgraph"
)

// Effect enumerates the tracked per-function properties.
type Effect int

const (
	// Allocates: the function contains an allocating construct.
	Allocates Effect = iota
	// ReadsWallClock: the function reads the wall clock (time.Now and
	// friends).
	ReadsWallClock
	// SeedsRandAmbiently: the function draws from math/rand's ambient
	// global source.
	SeedsRandAmbiently
	// NumEffects bounds the effect arrays in Fact.
	NumEffects
)

var effectNames = [NumEffects]string{
	"allocates", "reads-wall-clock", "seeds-rand-ambiently",
}

func (e Effect) String() string {
	if e >= 0 && e < NumEffects {
		return effectNames[e]
	}
	return fmt.Sprintf("Effect(%d)", int(e))
}

// Fact is the exported per-function summary: the transitive closure of
// the function's effects over every call chain the analyzer can follow.
type Fact struct {
	// Has[e] reports whether effect e is reachable from the function.
	Has [NumEffects]bool
	// Witness[e] is a short chain naming where effect e originates, e.g.
	// "calls sim.(*Engine).failure (engine.go:455) → fmt.Sprintf allocates (engine.go:530)".
	Witness [NumEffects]string
	// Cold marks a function annotated //emu:cold: a declared cold path
	// whose Allocates effect does not propagate to callers.
	Cold bool
}

// AFact marks Fact as an analysis fact.
func (*Fact) AFact() {}

// Any reports whether any effect (or the cold marker) is set.
func (f *Fact) Any() bool {
	if f.Cold {
		return true
	}
	for _, h := range f.Has {
		if h {
			return true
		}
	}
	return false
}

func (f *Fact) String() string {
	var parts []string
	for e := Effect(0); e < NumEffects; e++ {
		if f.Has[e] {
			parts = append(parts, e.String())
		}
	}
	if f.Cold {
		parts = append(parts, "cold")
	}
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, ",")
}

// ColdMarker is the annotation declaring a function a cold path.
const ColdMarker = "//emu:cold"

// IsCold reports whether the declaration carries the //emu:cold marker.
func IsCold(fd *ast.FuncDecl) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == ColdMarker || strings.HasPrefix(c.Text, ColdMarker+" ") {
			return true
		}
	}
	return false
}

// Result is the per-package product read through Pass.ResultOf.
type Result struct {
	// Graph is the package's call graph.
	Graph *callgraph.Graph
	// Facts maps every function declared in the package to its transitive
	// fact (never nil for a declared function).
	Facts map[*types.Func]*Fact
}

// Lookup returns the transitive fact for fn from any vantage point: the
// package under analysis (from the Result), an imported package (from the
// facts its analysis exported), or nil when fn has no recorded effects —
// external code with no facts is treated as effect-free, because every
// effect the suite models is either local (caught by the scanners at the
// call site) or flows through module code that does carry facts.
func (r *Result) Lookup(pass *analysis.Pass, fn *types.Func) *Fact {
	if fn.Pkg() == pass.Pkg {
		return r.Facts[fn]
	}
	var f Fact
	if pass.ImportObjectFact(fn, &f) {
		return &f
	}
	return nil
}

// Analyzer computes and exports the facts. It is unscoped by design: the
// transitive checks are only sound if every module package, in or out of
// any diagnosing analyzer's scope, contributes facts.
var Analyzer = &analysis.Analyzer{
	Name: "funcfacts",
	Doc: "computes per-function effect facts (allocates, reads wall clock, " +
		"seeds rand ambiently) over the package call graph, for the " +
		"transitive contract checks",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	g := callgraph.Build(pass.Files, pass.TypesInfo, pass.Pkg)
	res := &Result{Graph: g, Facts: map[*types.Func]*Fact{}}
	for _, n := range g.Nodes {
		f := &Fact{Cold: IsCold(n.Decl)}
		scanLocal(pass, n, f)
		res.Facts[n.Func] = f
	}
	propagate(pass, res)
	for _, n := range g.Nodes {
		// init functions are uncallable and unresolvable by name (a package
		// may have many); their facts matter only within this package.
		if n.Func.Name() == "init" && n.Func.Type().(*types.Signature).Recv() == nil {
			continue
		}
		if f := res.Facts[n.Func]; f.Any() {
			pass.ExportObjectFact(n.Func, f)
		}
	}
	return res, nil
}

// scanLocal seeds a function's fact with its body's own effect sites,
// keeping the first witness per effect.
func scanLocal(pass *analysis.Pass, n *callgraph.Node, f *Fact) {
	set := func(pos token.Pos, e Effect, format string, args ...any) {
		if f.Has[e] {
			return
		}
		f.Has[e] = true
		f.Witness[e] = fmt.Sprintf("%s (%s)", fmt.Sprintf(format, args...), shortPos(pass.Fset, pos))
	}
	body := n.Decl.Body
	ScanAlloc(pass.TypesInfo, body, func(pos token.Pos, format string, args ...any) {
		set(pos, Allocates, format, args...)
	})
	ScanAmbient(pass.TypesInfo, body, func(pos token.Pos, e Effect, format string, args ...any) {
		set(pos, e, format, args...)
	})
}

// propagate folds callee facts into callers until the package reaches a
// fixpoint (recursion and mutual recursion converge because effects only
// ever switch on). Iteration order is the graph's declaration order, so
// witnesses are deterministic.
func propagate(pass *analysis.Pass, res *Result) {
	for changed := true; changed; {
		changed = false
		for _, n := range res.Graph.Nodes {
			f := res.Facts[n.Func]
			for _, edge := range n.Edges {
				cf := res.Lookup(pass, edge.Callee)
				if cf == nil {
					continue
				}
				for e := Effect(0); e < NumEffects; e++ {
					if !cf.Has[e] || f.Has[e] || !Propagates(edge.Kind, e, cf.Cold) {
						continue
					}
					f.Has[e] = true
					f.Witness[e] = link(pass, edge, cf.Witness[e])
					changed = true
				}
			}
		}
	}
}

// Propagates reports whether effect e of a callee (cold or not) crosses
// an edge of the given kind, implementing the policy documented in the
// package comment. The diagnosing analyzers apply the same policy at
// their annotated roots so a root-level diagnostic and a propagated fact
// never disagree.
func Propagates(kind callgraph.Kind, e Effect, calleeCold bool) bool {
	if e == Allocates {
		return kind != callgraph.Interface && !calleeCold
	}
	return true
}

// link builds a caller-side witness: the call site plus the callee's own
// chain, truncated so deep chains stay readable.
func link(pass *analysis.Pass, edge callgraph.Edge, calleeWitness string) string {
	w := fmt.Sprintf("calls %s (%s) → %s",
		FuncLabel(edge.Callee, pass.Pkg), shortPos(pass.Fset, edge.Site), calleeWitness)
	const maxWitness = 280
	if len(w) > maxWitness {
		w = w[:maxWitness-1] + "…"
	}
	return w
}

// FuncLabel renders fn compactly relative to from: "F" or "(*T).M" for
// same-package functions, "pkg.F" or "pkg.(*T).M" otherwise.
func FuncLabel(fn *types.Func, from *types.Package) string {
	var b strings.Builder
	if fn.Pkg() != nil && fn.Pkg() != from {
		b.WriteString(fn.Pkg().Name())
		b.WriteByte('.')
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		b.WriteByte('(')
		b.WriteString(types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return "" }))
		b.WriteString(").")
	}
	b.WriteString(fn.Name())
	return strings.ReplaceAll(b.String(), "().", ").") // TypeString artifacts never occur; keep label stable
}

// shortPos renders a position as base-filename:line.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// Package analysis is a small, standard-library-only analysis framework
// in the shape of golang.org/x/tools/go/analysis, built on go/ast,
// go/types, and go/importer (the repo builds without a module proxy, so
// x/tools cannot be vendored): Analyzer, Pass, diagnostics, per-function
// facts, analyzer dependencies (Requires/ResultOf), a package loader, and
// an analysistest-style harness.
//
// The driver is interprocedural: the loader type-checks every package once,
// into one universe, and the driver analyzes packages one at a time in
// dependency order; analyzers attach per-function facts that the passes of
// downstream packages read from one in-memory table — see facts.go.
// Within one package, analyzers run in dependency order
// (Analyzer.Requires) and exchange results through Pass.ResultOf.
//
// The suite built on top of it (see the subpackages and cmd/emulint)
// converts the repo's central determinism promises from test-time checks
// into compile-time guarantees:
//
//   - funcfacts: computes the per-function effect facts (allocates, reads
//     the wall clock, seeds rand ambiently) every transitive check
//     consumes.
//   - nodeterminism: no wall-clock reads, no ambiently-seeded rand, no
//     unordered map iteration in result-producing packages — including
//     calls that reach an offender living in an out-of-scope package.
//   - hotpathalloc: functions annotated //emu:hotpath neither contain
//     allocating constructs nor call anything that transitively
//     allocates (cold paths opt out with //emu:cold).
//   - seedflow: every RNG constructed in a result-producing package is
//     seeded from configuration (a parameter, an options/spec field, a
//     constant), never from ambient state.
//   - fingerprint: every experiments.Options field is explicitly
//     classified into or out of the checkpoint fingerprint.
//   - observerguard: machine-layer trace emits sit behind the
//     nil-observer guard.
//
// Findings are suppressed, one site at a time, with a reasoned marker
// comment: //lint:allow <analyzer> <reason>.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Analyzer describes one static check. The zero scope (nil Packages) means
// the analyzer applies to every package the driver loads.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// comments. It must be a single lowercase word.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Packages, when non-nil, scopes the analyzer: the driver only runs it
	// on packages whose import path satisfies the predicate. analysistest
	// bypasses the scope and always runs the analyzer under test.
	// Analyzers that export facts or feed Requires edges must stay
	// unscoped, or downstream packages would see holes in the fact table.
	Packages func(path string) bool
	// Requires lists analyzers that must run first on the same package;
	// their results are available through Pass.ResultOf. The driver runs
	// the transitive closure automatically.
	Requires []*Analyzer
	// Run performs the check, reporting findings through the pass and
	// returning the result value Requires-dependents read (or nil).
	Run func(*Pass) (any, error)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ResultOf holds the results of this package's runs of the analyzers
	// named in Analyzer.Requires.
	ResultOf map[*Analyzer]any

	diags *[]Diagnostic
	facts map[factKey]Fact
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if the type checker did not record
// one.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// Diagnostic is one finding, located in file:line:column form so drivers
// can print it without holding the FileSet.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks a finding neutralized by a //lint:allow marker.
	// RunAnalyzers drops suppressed findings; Run keeps them (flagged) so
	// machine consumers see the full picture.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// AnalyzerTime is the accumulated wall-clock cost of one analyzer across
// every package it ran on.
type AnalyzerTime struct {
	Name     string
	Duration time.Duration
	Packages int
}

// Results is the full outcome of a driver run.
type Results struct {
	// Diagnostics come back sorted by position, suppressed ones included
	// (marked). Malformed allow comments are reported under the
	// pseudo-analyzer "lintcomment".
	Diagnostics []Diagnostic
	// Timing reports per-analyzer cost, in suite order.
	Timing []AnalyzerTime
}

// Findings returns the unsuppressed diagnostics.
func (r *Results) Findings() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// RunAnalyzers applies every in-scope analyzer (plus the transitive
// closure of their Requires) to every package, bottom-up over the import
// DAG, and returns the surviving findings: diagnostics on a line carrying
// (or immediately following) a matching //lint:allow comment are dropped.
// Diagnostics come back sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	res, err := Run(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	return res.Findings(), nil
}

// Run is RunAnalyzers with the full Results: suppressed diagnostics stay
// (marked), and per-analyzer timing is reported. Packages are analyzed one
// at a time, each after every given package it imports, whatever order
// pkgs arrive in; they must share one type-checked universe (as Load's
// and analysistest's packages do) for facts to cross between them.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Results, error) {
	closure := postorder(analyzers, func(a *Analyzer) []*Analyzer { return a.Requires })
	byTypes := map[*types.Package]*Package{}
	for _, pkg := range pkgs {
		byTypes[pkg.Types] = pkg
	}
	ordered := postorder(pkgs, func(pkg *Package) []*Package {
		var deps []*Package
		for _, imp := range pkg.Types.Imports() {
			if dep, ok := byTypes[imp]; ok {
				deps = append(deps, dep)
			}
		}
		return deps
	})
	res := &Results{Timing: make([]AnalyzerTime, len(closure))}
	for i, a := range closure {
		res.Timing[i].Name = a.Name
	}
	facts := map[factKey]Fact{}
	for _, pkg := range ordered {
		diags, err := analyzePackage(pkg, closure, facts, res.Timing)
		if err != nil {
			return nil, err
		}
		// A DepOnly package is analyzed only for its facts: the caller did
		// not ask about it, so its diagnostics are not reported.
		if !pkg.DepOnly {
			res.Diagnostics = append(res.Diagnostics, diags...)
		}
	}
	sortDiagnostics(res.Diagnostics)
	return res, nil
}

// postorder lists roots and everything reachable from them through deps,
// each node after all of its deps, independent nodes in first-seen order.
// A cycle panics: neither Analyzer.Requires nor the imports of
// type-checked packages can form one without a bug.
func postorder[T comparable](roots []T, deps func(T) []T) []T {
	var order []T
	state := map[T]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(n T)
	visit = func(n T) {
		switch state[n] {
		case 1:
			panic(fmt.Sprintf("analysis: dependency cycle through %v", n))
		case 2:
			return
		}
		state[n] = 1
		for _, d := range deps(n) {
			visit(d)
		}
		state[n] = 2
		order = append(order, n)
	}
	for _, n := range roots {
		visit(n)
	}
	return order
}

// analyzePackage runs the in-scope analyzers of closure (dependencies
// first) over one package, accumulating their cost into timing, and
// returns its diagnostics with //lint:allow markers applied.
func analyzePackage(pkg *Package, closure []*Analyzer, facts map[factKey]Fact, timing []AnalyzerTime) ([]Diagnostic, error) {
	var diags []Diagnostic
	allows := allowIndex{}
	for _, f := range pkg.Files {
		allows.collect(pkg.Fset, f, &diags)
	}
	results := map[*Analyzer]any{}
	for i, a := range closure {
		if a.Packages != nil && !a.Packages(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			ResultOf:  results,
			diags:     &diags,
			facts:     facts,
		}
		start := time.Now()
		res, err := a.Run(pass)
		timing[i].Duration += time.Since(start)
		timing[i].Packages++
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		results[a] = res
	}
	for i := range diags {
		if allows.allowed(diags[i]) {
			diags[i].Suppressed = true
		}
	}
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Package analysis is a self-contained reimplementation of the core
// golang.org/x/tools/go/analysis surface, built only on the standard
// library's go/ast, go/types, and go/importer. The container this repo is
// developed in has no module proxy access, so the real x/tools framework
// cannot be vendored; the subset here — Analyzer, Pass, diagnostics,
// facts, analyzer dependencies (Requires/ResultOf), a package loader, and
// an analysistest-style harness — is API-compatible in spirit, and an
// analyzer written against it ports to x/tools by renaming imports.
//
// The driver is interprocedural: packages are analyzed bottom-up over the
// import DAG (independent packages in parallel, bounded by GOMAXPROCS),
// and analyzers attach serialized per-function facts to packages that
// downstream passes import — see facts.go. Within one package, analyzers
// run in dependency order (Analyzer.Requires) and exchange results
// through Pass.ResultOf.
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
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
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
	// FactTypes declares the fact types this analyzer exports or imports,
	// one zero value each; the driver registers them for serialization.
	FactTypes []Fact
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

	diags    *[]Diagnostic
	export   *factStore
	imported *factStore
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
// (marked), and per-analyzer timing is reported.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Results, error) {
	closure := requireClosure(analyzers)
	for _, a := range closure {
		for _, ft := range a.FactTypes {
			gob.Register(ft)
		}
	}
	d := &driver{
		closure:  closure,
		export:   newFactStore(),
		imported: newFactStore(),
		blobs:    map[*types.Package][]byte{},
		decoded:  map[*types.Package]bool{},
		perPkg:   make([]pkgOutcome, len(pkgs)),
		timings:  make([]timing, len(closure)),
	}
	if err := d.run(pkgs); err != nil {
		return nil, err
	}
	res := &Results{}
	for _, out := range d.perPkg {
		res.Diagnostics = append(res.Diagnostics, out.diags...)
	}
	sortDiagnostics(res.Diagnostics)
	for i, a := range closure {
		res.Timing = append(res.Timing, AnalyzerTime{
			Name:     a.Name,
			Duration: time.Duration(d.timings[i].ns),
			Packages: d.timings[i].pkgs,
		})
	}
	return res, nil
}

// requireClosure expands analyzers with their transitive Requires,
// dependencies first, preserving first-seen order among independents and
// rejecting duplicates of the analyzer list itself.
func requireClosure(analyzers []*Analyzer) []*Analyzer {
	var order []*Analyzer
	state := map[*Analyzer]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(a *Analyzer)
	visit = func(a *Analyzer) {
		switch state[a] {
		case 1:
			panic(fmt.Sprintf("analysis: Requires cycle through %s", a.Name))
		case 2:
			return
		}
		state[a] = 1
		for _, dep := range a.Requires {
			visit(dep)
		}
		state[a] = 2
		order = append(order, a)
	}
	for _, a := range analyzers {
		visit(a)
	}
	return order
}

type timing struct {
	ns   int64
	pkgs int
}

type pkgOutcome struct {
	diags []Diagnostic
}

type driver struct {
	closure []*Analyzer

	export   *factStore // facts exported by completed and in-flight packages
	imported *factStore // facts visible to downstream packages (via decode)

	mu      sync.Mutex
	blobs   map[*types.Package][]byte
	decoded map[*types.Package]bool
	err     error

	perPkg  []pkgOutcome
	timings []timing
	timeMu  sync.Mutex
}

// run drives every package, dependencies before dependents, independent
// packages concurrently up to GOMAXPROCS workers.
func (d *driver) run(pkgs []*Package) error {
	byTypes := map[*types.Package]int{}
	for i, pkg := range pkgs {
		byTypes[pkg.Types] = i
	}
	// deps[i] = indexes of pkgs that pkgs[i] imports (directly) within the
	// analyzed set; waiting[i] = how many are not yet analyzed.
	dependents := make([][]int, len(pkgs))
	waiting := make([]int, len(pkgs))
	for i, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			if j, ok := byTypes[imp]; ok {
				dependents[j] = append(dependents[j], i)
				waiting[i]++
			}
		}
	}
	ready := make(chan int, len(pkgs))
	scheduled := 0
	for i := range pkgs {
		if waiting[i] == 0 {
			ready <- i
			scheduled++
		}
	}
	if scheduled == 0 && len(pkgs) > 0 {
		return fmt.Errorf("analysis: import cycle among analyzed packages")
	}

	var wg sync.WaitGroup
	var mu sync.Mutex // guards waiting, scheduled, readyClosed
	readyClosed := false
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case i, ok := <-ready:
					if !ok {
						return
					}
					err := d.analyzePackage(pkgs[i], i)
					mu.Lock()
					if err != nil {
						d.mu.Lock()
						if d.err == nil {
							d.err = err
							close(done)
						}
						d.mu.Unlock()
						mu.Unlock()
						return
					}
					for _, j := range dependents[i] {
						waiting[j]--
						if waiting[j] == 0 {
							ready <- j
							scheduled++
						}
					}
					if scheduled == len(pkgs) && !readyClosed {
						readyClosed = true
						close(ready)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if scheduled != len(pkgs) {
		return fmt.Errorf("analysis: import cycle among analyzed packages (%d of %d analyzed)", scheduled, len(pkgs))
	}
	return nil
}

// analyzePackage runs the analyzer closure over one package, then encodes
// its facts and publishes them (decoded) for dependents.
func (d *driver) analyzePackage(pkg *Package, idx int) error {
	var diags []Diagnostic
	allows := allowIndex{}
	for _, f := range pkg.Files {
		allows.collect(pkg.Fset, f, &diags)
	}
	results := map[*Analyzer]any{}
	for ai, a := range d.closure {
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
			export:    d.export,
			imported:  d.imported,
		}
		start := time.Now()
		res, err := a.Run(pass)
		elapsed := time.Since(start)
		d.timeMu.Lock()
		d.timings[ai].ns += int64(elapsed)
		d.timings[ai].pkgs++
		d.timeMu.Unlock()
		if err != nil {
			return fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		results[a] = res
	}
	for i := range diags {
		if allows.allowed(diags[i]) {
			diags[i].Suppressed = true
		}
	}
	if pkg.DepOnly {
		// Analyzed only for its facts: the caller did not ask about this
		// package, so its diagnostics (all pre-existing, by induction on
		// clean full runs) are not reported.
		diags = nil
	}
	d.perPkg[idx] = pkgOutcome{diags: diags}

	// Publish facts: encode everything attached to this package, then
	// decode the blob into the read store dependents consult — the
	// serialization round trip runs on every package, every time.
	facts := d.export.ofPackage(pkg.Types)
	blob, err := EncodeFacts(facts)
	if err != nil {
		return fmt.Errorf("%s: %w", pkg.Path, err)
	}
	decodedFacts, err := DecodeFacts(pkg.Types, blob)
	if err != nil {
		return fmt.Errorf("%s: %w", pkg.Path, err)
	}
	d.mu.Lock()
	d.blobs[pkg.Types] = blob
	d.decoded[pkg.Types] = true
	d.mu.Unlock()
	for _, of := range decodedFacts {
		d.imported.set(of.Object, of.Fact)
	}
	return nil
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

package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// markFact is a test fact carrying one payload string.
type markFact struct{ Note string }

func (*markFact) AFact() {}

// mapImporter resolves imports from a fixed set of already-checked
// packages, for multi-package driver tests without a GOPATH.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	return m[path], nil
}

// checkSrc type-checks one in-memory file against the given importer.
func checkSrc(t *testing.T, fset *token.FileSet, imp types.Importer, path, src string) *Package {
	t.Helper()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}
	pkg, info, err := Check(fset, imp, path, files)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info}
}

// TestFactFlowAcrossPackages runs the real driver over a two-package DAG,
// given dependent first: an exporting analyzer marks functions of the
// dependency, and a consuming analyzer on the dependent package must see
// the fact, so the driver must have analyzed the dependency first.
func TestFactFlowAcrossPackages(t *testing.T) {
	fset := token.NewFileSet()
	imp := mapImporter{}
	dep := checkSrc(t, fset, imp, "dep", `package dep

func Marked() {}
`)
	imp["dep"] = dep.Types
	top := checkSrc(t, fset, imp, "top", `package top

import "dep"

func Use() { dep.Marked() }
`)

	exporter := &Analyzer{
		Name: "exporter",
		Doc:  "marks every package-level function",
		Run: func(pass *Pass) (any, error) {
			scope := pass.Pkg.Scope()
			for _, name := range scope.Names() {
				if fn, ok := scope.Lookup(name).(*types.Func); ok {
					pass.ExportObjectFact(fn, &markFact{Note: "exported in " + pass.Pkg.Path()})
				}
			}
			return nil, nil
		},
	}
	var sawNote string
	consumer := &Analyzer{
		Name:     "consumer",
		Doc:      "reads the dependency's fact",
		Requires: []*Analyzer{exporter},
		Run: func(pass *Pass) (any, error) {
			if pass.Pkg.Path() != "top" {
				return nil, nil
			}
			depPkg := pass.Pkg.Imports()[0]
			fn := depPkg.Scope().Lookup("Marked").(*types.Func)
			var f markFact
			if !pass.ImportObjectFact(fn, &f) {
				pass.Reportf(pass.Files[0].Pos(), "no fact on dep.Marked")
				return nil, nil
			}
			sawNote = f.Note
			return nil, nil
		},
	}
	diags, err := RunAnalyzers([]*Package{top, dep}, []*Analyzer{consumer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	if sawNote != "exported in dep" {
		t.Fatalf("consumer read %q, want %q", sawNote, "exported in dep")
	}
}

// TestResultOf pins the within-package dependency mechanism: a Requires
// analyzer's return value is visible through Pass.ResultOf.
func TestResultOf(t *testing.T) {
	fset := token.NewFileSet()
	pkg := checkSrc(t, fset, nil, "p", `package p

func F() {}
`)
	base := &Analyzer{
		Name: "base",
		Doc:  "returns a value",
		Run:  func(pass *Pass) (any, error) { return 42, nil },
	}
	var got any
	top := &Analyzer{
		Name:     "top",
		Doc:      "reads base's result",
		Requires: []*Analyzer{base},
		Run: func(pass *Pass) (any, error) {
			got = pass.ResultOf[base]
			return nil, nil
		},
	}
	if _, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{top}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("ResultOf[base] = %v, want 42", got)
	}
}

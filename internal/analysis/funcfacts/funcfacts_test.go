package funcfacts_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"emuchick/internal/analysis"
	"emuchick/internal/analysis/callgraph"
	"emuchick/internal/analysis/funcfacts"
)

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	return m[path], nil
}

func checkSrc(t *testing.T, fset *token.FileSet, imp types.Importer, path, src string) *analysis.Package {
	t.Helper()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}
	pkg, info, err := analysis.Check(fset, imp, path, files)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info}
}

// analyze runs the real driver and captures each package's funcfacts
// Result.
func analyze(t *testing.T, pkgs ...*analysis.Package) map[string]*funcfacts.Result {
	t.Helper()
	results := map[string]*funcfacts.Result{}
	capture := &analysis.Analyzer{
		Name:     "capture",
		Doc:      "captures funcfacts results for the test",
		Requires: []*analysis.Analyzer{funcfacts.Analyzer},
		Run: func(pass *analysis.Pass) (any, error) {
			results[pass.Pkg.Path()] = pass.ResultOf[funcfacts.Analyzer].(*funcfacts.Result)
			return nil, nil
		},
	}
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{capture})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	return results
}

// fakeStd type-checks stand-ins for the two standard packages the ambient
// scanners recognize by import path, so test sources can reach their
// effects without loading the real standard library.
func fakeStd(t *testing.T, fset *token.FileSet) mapImporter {
	t.Helper()
	imp := mapImporter{}
	imp["time"] = checkSrc(t, fset, nil, "time", "package time\n\nfunc Now() int { return 0 }\n").Types
	imp["math/rand"] = checkSrc(t, fset, nil, "math/rand", "package rand\n\nfunc Intn(n int) int { return 0 }\n").Types
	return imp
}

func fact(t *testing.T, res *funcfacts.Result, pkg *analysis.Package, name string) *funcfacts.Fact {
	t.Helper()
	fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("no function %s in %s", name, pkg.Path)
	}
	f := res.Facts[fn]
	if f == nil {
		t.Fatalf("no fact for %s.%s", pkg.Path, name)
	}
	return f
}

func TestPropagatesPolicy(t *testing.T) {
	cases := []struct {
		kind callgraph.Kind
		e    funcfacts.Effect
		cold bool
		want bool
	}{
		{callgraph.Static, funcfacts.Allocates, false, true},
		{callgraph.Static, funcfacts.Allocates, true, false},
		{callgraph.FuncValue, funcfacts.Allocates, false, true},
		{callgraph.Interface, funcfacts.Allocates, false, false},
		{callgraph.Interface, funcfacts.ReadsWallClock, false, true},
		{callgraph.Interface, funcfacts.SeedsRandAmbiently, true, true},
		{callgraph.Static, funcfacts.ReadsWallClock, true, true},
		{callgraph.FuncValue, funcfacts.SeedsRandAmbiently, false, true},
	}
	for _, c := range cases {
		if got := funcfacts.Propagates(c.kind, c.e, c.cold); got != c.want {
			t.Errorf("Propagates(%v, %v, cold=%v) = %v, want %v", c.kind, c.e, c.cold, got, c.want)
		}
	}
}

func TestLocalEffects(t *testing.T) {
	fset := token.NewFileSet()
	pkg := checkSrc(t, fset, fakeStd(t, fset), "p", `package p

import (
	"math/rand"
	"time"
)

func alloc() []int { return make([]int, 8) }

func clock() int { return time.Now() }

func random() int { return rand.Intn(4) }

func both() int { return clock() + random() }

func clean(x int) int { return x + 1 }
`)
	res := analyze(t, pkg)["p"]
	checks := []struct {
		fn string
		e  funcfacts.Effect
	}{
		{"alloc", funcfacts.Allocates},
		{"clock", funcfacts.ReadsWallClock},
		{"random", funcfacts.SeedsRandAmbiently},
	}
	for _, c := range checks {
		f := fact(t, res, pkg, c.fn)
		if !f.Has[c.e] {
			t.Errorf("%s: effect %v not set (fact: %s)", c.fn, c.e, f)
		}
		if f.Witness[c.e] == "" {
			t.Errorf("%s: effect %v has no witness", c.fn, c.e)
		}
	}
	if f := fact(t, res, pkg, "clean"); f.Any() {
		t.Errorf("clean: want no effects, got %s", f)
	}
	// both reaches clock's and random's sites: the effects propagate up
	// the static edges.
	if f := fact(t, res, pkg, "both"); !f.Has[funcfacts.ReadsWallClock] || !f.Has[funcfacts.SeedsRandAmbiently] {
		t.Errorf("both: clock and rand effects should propagate (fact: %s)", f)
	}
}

// TestChainWitness pins the witness format over a two-hop chain: the
// caller's witness names each link and ends at the originating site.
func TestChainWitness(t *testing.T) {
	fset := token.NewFileSet()
	pkg := checkSrc(t, fset, nil, "p", `package p

func leaf() []int { return make([]int, 4) }

func mid() []int { return leaf() }

func top() []int { return mid() }
`)
	res := analyze(t, pkg)["p"]
	f := fact(t, res, pkg, "top")
	if !f.Has[funcfacts.Allocates] {
		t.Fatalf("top: Allocates not set (fact: %s)", f)
	}
	w := f.Witness[funcfacts.Allocates]
	for _, part := range []string{"calls mid (p.go:", "calls leaf (p.go:", "make allocates"} {
		if !strings.Contains(w, part) {
			t.Errorf("witness %q missing %q", w, part)
		}
	}
}

// TestColdStopsAllocates pins the //emu:cold contract: the cold function
// keeps its own Allocates fact, callers inherit everything except it.
func TestColdStopsAllocates(t *testing.T) {
	fset := token.NewFileSet()
	pkg := checkSrc(t, fset, fakeStd(t, fset), "p", `package p

import "time"

//emu:cold pool-miss path, amortized away
func coldLeaf() []int {
	_ = time.Now()
	return make([]int, 4)
}

func caller() { coldLeaf() }
`)
	res := analyze(t, pkg)["p"]
	leaf := fact(t, res, pkg, "coldLeaf")
	if !leaf.Cold || !leaf.Has[funcfacts.Allocates] || !leaf.Has[funcfacts.ReadsWallClock] {
		t.Fatalf("coldLeaf: want cold+allocates+reads-wall-clock, got %s", leaf)
	}
	caller := fact(t, res, pkg, "caller")
	if caller.Has[funcfacts.Allocates] {
		t.Errorf("caller: Allocates leaked through //emu:cold (fact: %s)", caller)
	}
	if !caller.Has[funcfacts.ReadsWallClock] {
		t.Errorf("caller: ReadsWallClock should cross the cold boundary (fact: %s)", caller)
	}
}

// TestInterfaceEdgePolicy pins CHA propagation: behavioral effects cross
// interface dispatch, Allocates does not.
func TestInterfaceEdgePolicy(t *testing.T) {
	fset := token.NewFileSet()
	pkg := checkSrc(t, fset, fakeStd(t, fset), "p", `package p

import "time"

type Worker interface{ Work() }

type W struct{}

func (W) Work() {
	_ = time.Now()
	_ = make([]int, 8)
}

func drive(w Worker) { w.Work() }
`)
	res := analyze(t, pkg)["p"]
	f := fact(t, res, pkg, "drive")
	if !f.Has[funcfacts.ReadsWallClock] {
		t.Errorf("drive: ReadsWallClock should cross the interface edge (fact: %s)", f)
	}
	if f.Has[funcfacts.Allocates] {
		t.Errorf("drive: Allocates must not cross the interface edge (fact: %s)", f)
	}
}

// TestMutualRecursion pins fixpoint termination: effects only switch on,
// so a cycle converges with both members carrying the cycle's effects.
func TestMutualRecursion(t *testing.T) {
	fset := token.NewFileSet()
	pkg := checkSrc(t, fset, nil, "p", `package p

func ping(n int) []int {
	if n == 0 {
		return make([]int, 1)
	}
	return pong(n - 1)
}

func pong(n int) []int { return ping(n) }
`)
	res := analyze(t, pkg)["p"]
	for _, name := range []string{"ping", "pong"} {
		if f := fact(t, res, pkg, name); !f.Has[funcfacts.Allocates] {
			t.Errorf("%s: Allocates not set across the recursion (fact: %s)", name, f)
		}
	}
}

// TestSyntheticPackageDAG runs the driver over a three-package chain and
// requires the allocation fact to flow bottom-up across both boundaries,
// with a witness naming every hop.
func TestSyntheticPackageDAG(t *testing.T) {
	fset := token.NewFileSet()
	imp := mapImporter{}
	leaf := checkSrc(t, fset, imp, "leaf", `package leaf

func Alloc() []int { return make([]int, 4) }
`)
	imp["leaf"] = leaf.Types
	mid := checkSrc(t, fset, imp, "mid", `package mid

import "leaf"

func Wrap() []int { return leaf.Alloc() }
`)
	imp["mid"] = mid.Types
	top := checkSrc(t, fset, imp, "top", `package top

import "mid"

func Use() []int { return mid.Wrap() }
`)
	// Deliberately out of dependency order: the driver must topo-sort.
	results := analyze(t, top, leaf, mid)
	f := fact(t, results["top"], top, "Use")
	if !f.Has[funcfacts.Allocates] {
		t.Fatalf("top.Use: Allocates did not cross the package DAG (fact: %s)", f)
	}
	w := f.Witness[funcfacts.Allocates]
	for _, part := range []string{"calls mid.Wrap (top.go:", "calls leaf.Alloc (mid.go:", "make allocates"} {
		if !strings.Contains(w, part) {
			t.Errorf("witness %q missing %q", w, part)
		}
	}
	// The middle layer saw the fact too.
	if f := fact(t, results["mid"], mid, "Wrap"); !f.Has[funcfacts.Allocates] {
		t.Errorf("mid.Wrap: Allocates not set (fact: %s)", f)
	}
}

package suite_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emuchick/internal/analysis"
	"emuchick/internal/analysis/suite"
)

// TestLoadSharesPackagesAcrossImports drives the real loader over a
// two-module-package tree written to disk: top's //emu:hotpath function
// calls a dep function that allocates. The finding exists only if the
// allocation fact dep's analysis exported is found from top, which needs
// top's import of dep to resolve to the very package Load type-checked for
// dep, not a second copy of it.
func TestLoadSharesPackagesAcrossImports(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"dep/dep.go": `package dep

func Grow(n int) []int { return make([]int, n) }
`,
		"top/top.go": `package top

import "example.com/m/dep"

//emu:hotpath steady-state loop of the planted violation
func Step(n int) int { return len(dep.Grow(n)) }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: dir}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*analysis.Package{}
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}
	dep, top := byPath["example.com/m/dep"], byPath["example.com/m/top"]
	if dep == nil || top == nil {
		t.Fatalf("loaded %d packages, want example.com/m/dep and example.com/m/top", len(pkgs))
	}
	imports := top.Types.Imports()
	if len(imports) != 1 || imports[0] != dep.Types {
		t.Fatalf("top imports %v, want exactly the *types.Package Load returned for dep (%p)", imports, dep.Types)
	}

	res, err := analysis.Run(pkgs, suite.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	diags := res.Diagnostics
	if len(diags) != 1 || diags[0].Analyzer != "hotpathalloc" ||
		!strings.Contains(diags[0].Message, "dep.Grow") || filepath.Base(diags[0].Pos.Filename) != "top.go" {
		t.Fatalf("got diagnostics %v, want one transitive hotpathalloc finding at top.go naming dep.Grow", diags)
	}
}

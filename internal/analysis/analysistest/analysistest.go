// Package analysistest runs one analyzer over a directory of Go sources and
// checks its diagnostics against // want comments embedded in those sources,
// mirroring golang.org/x/tools/go/analysis/analysistest for the stdlib-only
// framework in internal/analysis.
//
// Expectation grammar: a line comment of the form
//
//	// want `regexp` `regexp` ...
//
// (double-quoted Go strings also work) attaches one expectation per pattern
// to the comment's line. The harness fails the test when a diagnostic has no
// matching expectation on its line, and when an expectation matches no
// diagnostic. Suppression comments (//lint:allow) are honored exactly as in
// the real driver, so testdata can exercise them; the analyzer's package
// scope is ignored so testdata packages are always in scope.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"emuchick/internal/analysis"
)

// Run loads the package rooted at dir, applies a with its package scope
// bypassed, and reports every mismatch between diagnostics and // want
// expectations through t.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := load(dir)
	if err != nil {
		t.Fatal(err)
	}
	unscoped := *a
	unscoped.Packages = nil
	check(t, []*analysis.Package{pkg}, &unscoped)
}

// RunDirs loads several directories under base as one package each — the
// import path of a package is its directory name, and later packages may
// import earlier ones by that name, through the same Importer the real
// loader uses — then applies a and checks // want expectations across
// every file. This is the harness for transitive suites: dependency
// packages first, the package under test last.
//
// Scope handling differs from Run on the dependency packages: only the
// final package bypasses a's Packages scope. Dependencies are analyzed
// exactly as the real driver would treat out-of-scope code — their facts
// exist (Requires analyzers stay unscoped), their diagnostics don't —
// so a testdata dep can contain a planted violation whose only report is
// the transitive one at the package under test.
func RunDirs(t *testing.T, base string, a *analysis.Analyzer, dirs ...string) {
	t.Helper()
	if len(dirs) == 0 {
		t.Fatal("analysistest: RunDirs needs at least one dir")
	}
	fset := token.NewFileSet()
	imp := analysis.NewImporter(fset)
	var pkgs []*analysis.Package
	for _, d := range dirs {
		pkg, err := loadInto(fset, imp, filepath.Join(base, d), d)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	underTest := pkgs[len(pkgs)-1]
	scoped := *a
	inner := scoped.Packages
	scoped.Packages = func(path string) bool {
		return path == underTest.Path || (inner != nil && inner(path))
	}
	check(t, pkgs, &scoped)
}

// check runs a over pkgs and matches diagnostics against the packages'
// // want expectations.
func check(t *testing.T, pkgs []*analysis.Package, a *analysis.Analyzer) {
	t.Helper()
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// load parses and type-checks every .go file in dir as one package.
func load(dir string) (*analysis.Package, error) {
	fset := token.NewFileSet()
	return loadInto(fset, analysis.NewImporter(fset), dir, "")
}

// loadInto parses and type-checks dir as one package into a shared
// FileSet, resolving imports through imp and registering the result with
// it. An empty path defaults to the package clause's name.
func loadInto(fset *token.FileSet, imp *analysis.Importer, dir, path string) (*analysis.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysistest: no .go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if path == "" {
		path = files[0].Name.Name
	}
	tpkg, info, err := analysis.Check(fset, imp, path, files)
	if err != nil {
		return nil, err
	}
	imp.Add(tpkg)
	return &analysis.Package{
		Path:  path,
		Dir:   dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// expectation is one // want pattern attached to a source line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// collectWants extracts every // want expectation from the package's
// comments.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // want syntax lives in line comments only
				}
				text, ok = strings.CutPrefix(strings.TrimLeft(text, " \t"), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				pats, err := parsePatterns(text)
				if err != nil {
					t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, p := range pats {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// parsePatterns reads a sequence of space-separated Go string literals
// (backquoted or double-quoted).
func parsePatterns(s string) ([]string, error) {
	var pats []string
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			return pats, nil
		}
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated `...` want pattern")
			}
			pats = append(pats, s[1:1+end])
			s = s[end+2:]
		case '"':
			end := closingQuote(s)
			if end < 0 {
				return nil, fmt.Errorf(`unterminated "..." want pattern`)
			}
			p, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad want pattern %s: %v", s[:end+1], err)
			}
			pats = append(pats, p)
			s = s[end+1:]
		default:
			return nil, fmt.Errorf("want patterns must be Go string literals; got %q", s)
		}
	}
}

// closingQuote returns the index of the double quote ending the literal that
// opens s, or -1.
func closingQuote(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}

// claim marks the first unused expectation on d's line whose pattern matches
// d's message, reporting whether one was found.
func claim(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.used && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.used = true
			return true
		}
	}
	return false
}

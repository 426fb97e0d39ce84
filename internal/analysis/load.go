package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// DepOnly marks a package loaded only because a requested package
	// depends on it: analyzers run on it (its facts feed the requested
	// packages' transitive checks) but its diagnostics are not reported.
	DepOnly bool
}

// LoadConfig tunes Load.
type LoadConfig struct {
	// Dir is the working directory for the go list invocation; "" means
	// the current directory. Patterns may be path patterns (./...) rooted
	// at Dir or import-path patterns (emuchick/...), which resolve from
	// anywhere inside the module.
	Dir string
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Error      *struct{ Err string }
}

// Load enumerates the packages matching patterns via the go tool, parses
// their sources, and type-checks each module package exactly once, in the
// go list -deps order (dependencies first), through one Importer: a module
// package's importers see the very *types.Package Load returns for it, so
// facts attached to its functions are found from every importer. The
// standard library is type-checked from source (no pre-built export data
// is needed, so the loader works in a hermetic build environment), also
// once per Load.
//
// Module-internal dependencies of the matched packages are loaded too,
// marked DepOnly: the interprocedural checks are only sound when every
// dependency has contributed its facts, even on a partial pattern like
// ./internal/cilk. Standard-library dependencies are not analyzed; their
// effects are modeled at the call site by the local scanners.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset)
	var pkgs []*Package
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Standard {
			continue
		}
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", lp.ImportPath)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, err := Check(fset, imp, lp.ImportPath, files)
		if err != nil {
			return nil, err
		}
		imp.Add(pkg)
		pkgs = append(pkgs, &Package{
			Path:    lp.ImportPath,
			Dir:     lp.Dir,
			Fset:    fset,
			Files:   files,
			Types:   pkg,
			Info:    info,
			DepOnly: lp.DepOnly,
		})
	}
	return pkgs, nil
}

// Check type-checks one parsed package with full expression, object, and
// selection information recorded, resolving its imports through imp (nil
// when the package imports nothing). It is exported for analysistest and
// for tests that build packages from in-memory sources.
func Check(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return pkg, info, nil
}

// Importer is the one importer of a type-checked universe. A package
// registered with Add is returned as-is to every later importer; any other
// path (the standard library) goes to a source importer, which
// type-checks it once and caches it. go/types passes each importing
// file's directory to ImportFrom, so the source importer resolves from the
// same vantage point as the compiler.
type Importer struct {
	std      types.ImporterFrom
	packages map[string]*types.Package
}

// NewImporter returns an Importer with no registered packages whose
// standard-library packages are type-checked from source into fset.
func NewImporter(fset *token.FileSet) *Importer {
	return &Importer{
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		packages: map[string]*types.Package{},
	}
}

// Add registers pkg as the answer to every later import of its path.
func (im *Importer) Add(pkg *types.Package) { im.packages[pkg.Path()] = pkg }

// Import implements types.Importer.
func (im *Importer) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (im *Importer) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := im.packages[path]; ok {
		return pkg, nil
	}
	return im.std.ImportFrom(path, dir, mode)
}

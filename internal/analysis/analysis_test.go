package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// loadSrc type-checks one in-memory file as a package; no imports means the
// importer is never consulted.
func loadSrc(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}
	pkg, info, err := Check(fset, nil, "p", files)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "p", Fset: fset, Files: files, Types: pkg, Info: info}
}

// dummy flags every call to target().
var dummy = &Analyzer{
	Name: "dummy",
	Doc:  "flags every call to target",
	Run: func(pass *Pass) (any, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "target" {
						pass.Reportf(call.Pos(), "target called")
					}
				}
				return true
			})
		}
		return nil, nil
	},
}

func TestPackageScope(t *testing.T) {
	const src = `package p

func target() {}

func use() { target() }
`
	pkg := loadSrc(t, src)
	res, err := Run([]*Package{pkg}, []*Analyzer{dummy})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Pos.Line != 5 {
		t.Fatalf("unscoped analyzer reported %v, want one finding at line 5", res.Diagnostics)
	}
	scoped := *dummy
	scoped.Packages = func(path string) bool { return path == "somewhere/else" }
	res, err = Run([]*Package{pkg}, []*Analyzer{&scoped})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 0 {
		t.Fatalf("out-of-scope analyzer still reported: %v", res.Diagnostics)
	}
}

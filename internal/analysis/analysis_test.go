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

func TestSuppression(t *testing.T) {
	const src = `package p

func target() {}

func use() {
	target() //lint:allow dummy same-line marker tolerates this call
	//lint:allow dummy line-above marker tolerates the next line
	target()
	target()
	//lint:allow dummy
	target()
}
`
	pkg := loadSrc(t, src)
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{dummy})
	if err != nil {
		t.Fatal(err)
	}
	// Lines 6 and 8 are suppressed. Line 9 is two lines below its nearest
	// marker, so it survives; line 10's marker has no reason and is itself a
	// finding that suppresses nothing, so line 11 survives too.
	want := []struct {
		analyzer string
		line     int
	}{
		{"dummy", 9},
		{"lintcomment", 10},
		{"dummy", 11},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(diags), diags, len(want))
	}
	for i, w := range want {
		if diags[i].Analyzer != w.analyzer || diags[i].Pos.Line != w.line {
			t.Errorf("diag %d = %s at line %d, want %s at line %d",
				i, diags[i].Analyzer, diags[i].Pos.Line, w.analyzer, w.line)
		}
	}
}

func TestPackageScope(t *testing.T) {
	const src = `package p

func target() {}

func use() { target() }
`
	pkg := loadSrc(t, src)
	scoped := *dummy
	scoped.Packages = func(path string) bool { return path == "somewhere/else" }
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{&scoped})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("out-of-scope analyzer still reported: %v", diags)
	}
}

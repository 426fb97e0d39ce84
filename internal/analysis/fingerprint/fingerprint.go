// Package fingerprint guards the checkpoint-resume equivalence contract at
// its root: the options fingerprint. A checkpoint written under one
// workload shape must be refused by any other, and must be reusable under
// any option that merely changes how cells are driven. That soundness
// argument is only as good as the classification of every Options field as
// fingerprint-relevant (In) or fingerprint-exempt (Out) — so the
// classification is a single exported table, and the analyzer fails the
// build whenever the table, the Options struct, and the fingerprint
// function drift apart:
//
//   - every field of the options struct must appear in the table;
//   - every table entry must name a real field (no stale entries);
//   - the fingerprint function must read every In field and no Out field.
//
// Adding a new option therefore forces an explicit decision — and the
// runtime tests assert the behavioral half (In fields change the
// fingerprint, Out fields do not) from the same table.
package fingerprint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"emuchick/internal/analysis"
)

// Class says which side of the fingerprint a field is on.
type Class int

const (
	// In fields shape the workload: two runs differing in an In field must
	// never share a checkpoint.
	In Class = iota
	// Out fields only change how cells are driven (scheduling, tracing,
	// watchdogs); resume must work across any Out-field change.
	Out
)

func (c Class) String() string {
	if c == In {
		return "In"
	}
	return "Out"
}

// Fields is the classification of emuchick/internal/experiments.Options —
// the single source of truth shared by this analyzer and the equivalence
// tests.
var Fields = map[string]Class{
	// Workload-shaping: these decide which cells exist and what they compute.
	"Trials":    In,
	"Quick":     In,
	"Faults":    In,
	"FaultSeed": In,
	// Drive-side: results are identical across any change to these.
	"Parallel":       Out,
	"Observer":       Out,
	"SampleInterval": Out,
	"Checkpoint":     Out, // the log's own path; recorded nowhere inside it
	"CellTimeout":    Out,
	"Retries":        Out,
	"ctx":            Out,
	"ckptFS":         Out, // which filesystem holds the WAL, not what it records
	"ckpt":           Out,
	"maxEvents":      Out,
	"ckptHook":       Out,
}

// Config parameterizes the analyzer so analysistest can run it against a
// miniature options struct with its own table.
type Config struct {
	// Struct is the options struct's type name.
	Struct string
	// Func is the fingerprint function's name.
	Func string
	// Fields is the classification table to enforce.
	Fields map[string]Class
}

// NewAnalyzer builds a fingerprint analyzer for one configuration.
func NewAnalyzer(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "fingerprint",
		Doc: "requires every field of the experiments options struct to be " +
			"classified In or Out of the checkpoint fingerprint, and the " +
			"fingerprint function to agree with the classification",
		Packages: func(path string) bool { return path == "emuchick/internal/experiments" },
		Run:      func(pass *analysis.Pass) (any, error) { return nil, run(pass, cfg) },
	}
}

// Analyzer enforces the real table against the real experiments package.
var Analyzer = NewAnalyzer(Config{
	Struct: "Options",
	Func:   "optionsFingerprint",
	Fields: Fields,
})

func run(pass *analysis.Pass, cfg Config) error {
	st, pos := findStruct(pass, cfg.Struct)
	if st == nil {
		return nil // struct not in this package; nothing to enforce
	}
	fields := map[string]bool{}
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			fields[name.Name] = true
			if _, ok := cfg.Fields[name.Name]; !ok {
				pass.Reportf(name.Pos(), "field %s.%s is not classified in the checkpoint fingerprint table; add it as In (workload-shaping) or Out (drive-side) and cover it in the equivalence tests", cfg.Struct, name.Name)
			}
		}
	}
	stale := []string{}
	for name := range cfg.Fields {
		if !fields[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		pass.Reportf(pos, "fingerprint table entry %q matches no field of %s; delete the stale entry", name, cfg.Struct)
	}

	fn := findFunc(pass, cfg.Func)
	if fn == nil {
		pass.Reportf(pos, "fingerprint function %s not found in this package", cfg.Func)
		return nil
	}
	read := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !isOptionsType(pass, sel.X, cfg.Struct) || !fields[sel.Sel.Name] {
			return true
		}
		read[sel.Sel.Name] = true
		if cfg.Fields[sel.Sel.Name] == Out {
			pass.Reportf(sel.Pos(), "Out field %s must not flow into the fingerprint: a resume across a %s change would be refused for no reason", sel.Sel.Name, sel.Sel.Name)
		}
		return true
	})
	missing := []string{}
	for name, class := range cfg.Fields {
		if class == In && fields[name] && !read[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		pass.Reportf(fn.Pos(), "In field %s is not folded into the fingerprint: a resume across a %s change would silently mix incompatible cells", name, name)
	}
	return nil
}

// findStruct locates the named struct type declaration.
func findStruct(pass *analysis.Pass, name string) (*ast.StructType, token.Pos) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st, ts.Pos()
				}
			}
		}
	}
	return nil, 0
}

func findFunc(pass *analysis.Pass, name string) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name && fd.Body != nil {
				return fd
			}
		}
	}
	return nil
}

// isOptionsType reports whether e's static type is the options struct (or a
// pointer to it) declared in the package under analysis.
func isOptionsType(pass *analysis.Pass, e ast.Expr, structName string) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == structName && named.Obj().Pkg() == pass.Pkg
}

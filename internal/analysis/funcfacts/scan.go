package funcfacts

// Local effect scanners: the intraprocedural half of the fact computation.
// Each scanner walks one function body and reports every site exhibiting
// its effect through a callback, so the same logic serves two masters —
// the diagnosing analyzers (hotpathalloc, nodeterminism) call them with
// pass.Reportf to flag sites inside annotated functions, and the fact
// computation calls them with a first-witness collector to summarize
// every function.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ReportFunc receives one effect site. Messages are phrased without an
// analyzer prefix; diagnosing analyzers prepend their own framing.
type ReportFunc func(pos token.Pos, format string, args ...any)

// --- allocation ---

// ScanAlloc reports every allocating construct in body: calls into fmt or
// errors, make/new, function literals, slice and map literals, string
// concatenation and string<->[]byte/[]rune conversions, non-self append,
// and implicit boxing of a non-pointer value into an interface. Arguments
// of panic are exempt: a panicking path is already dead.
func ScanAlloc(info *types.Info, body ast.Node, report ReportFunc) {
	c := &allocScanner{info: info, report: report, appendHandled: map[*ast.CallExpr]bool{}}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(info, n.Fun, "panic") {
				return false // cold by construction
			}
			c.checkCall(n)
		case *ast.FuncLit:
			report(n.Pos(), "function literal may escape and allocate")
			return false
		case *ast.CompositeLit:
			c.checkComposite(n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			c.checkAssign(n)
		}
		return true
	})
}

// allocScanner carries per-body state: appends already validated (or
// flagged) at their enclosing assignment, which checkCall must not
// double-report.
type allocScanner struct {
	info          *types.Info
	report        ReportFunc
	appendHandled map[*ast.CallExpr]bool
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pointerLike types carry their payload in the interface data word, so
// converting one to an interface does not allocate.
func pointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func (c *allocScanner) checkCall(call *ast.CallExpr) {
	info, report := c.info, c.report
	// Conversions: string<->[]byte/[]rune copy and allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			if from != nil && (isString(to) != isString(from)) && (isString(to) || isString(from)) {
				report(call.Pos(), "conversion between string and byte/rune slice allocates")
			}
		}
		return
	}
	if isBuiltin(info, call.Fun, "make") || isBuiltin(info, call.Fun, "new") {
		report(call.Pos(), "%s allocates", call.Fun.(*ast.Ident).Name)
		return
	}
	if isBuiltin(info, call.Fun, "append") {
		// Non-self appends are caught at the assignment; an append anywhere
		// else (nested in a call, discarded) abandons the reuse guarantee.
		if !c.appendHandled[call] {
			report(call.Pos(), "append result is discarded or not reassigned to its base; only x = append(x, ...) reuses storage")
		}
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				switch pn.Imported().Path() {
				case "fmt", "errors":
					report(call.Pos(), "%s.%s allocates", pn.Imported().Name(), sel.Sel.Name)
					return
				}
			}
		}
	}
	c.checkBoxing(call)
}

// checkAssign validates the self-append shape: for each lhs_i = append(b,
// ...), b (or its slice-expression base, as in x = append(x[:0], ...))
// must be syntactically identical to lhs_i.
func (c *allocScanner) checkAssign(asg *ast.AssignStmt) {
	for i, rhs := range asg.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltin(c.info, call.Fun, "append") || len(call.Args) == 0 {
			continue
		}
		c.appendHandled[call] = true
		if i >= len(asg.Lhs) {
			continue
		}
		base := call.Args[0]
		if se, ok := base.(*ast.SliceExpr); ok {
			base = se.X
		}
		if types.ExprString(asg.Lhs[i]) != types.ExprString(base) {
			c.report(call.Pos(), "append to %s assigned to %s allocates a fresh backing array; use the self-append form x = append(x, ...)",
				types.ExprString(base), types.ExprString(asg.Lhs[i]))
		}
	}
}

func (c *allocScanner) checkComposite(lit *ast.CompositeLit) {
	t := c.info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.report(lit.Pos(), "slice literal allocates")
	case *types.Map:
		c.report(lit.Pos(), "map literal allocates")
	}
}

// checkBoxing flags arguments whose static type is a non-pointer concrete
// type being passed where the callee expects an interface — each such call
// heap-allocates the boxed copy.
func (c *allocScanner) checkBoxing(call *ast.CallExpr) {
	sig, ok := funcSig(c.info, call)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no per-arg boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := c.info.TypeOf(arg)
		if at == nil || pointerLike(at) || isUntypedNil(c.info, arg) {
			continue
		}
		c.report(arg.Pos(), "%s is boxed into interface %s (allocates)", at, pt)
	}
}

func funcSig(info *types.Info, call *ast.CallExpr) (*types.Signature, bool) {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// --- ambient nondeterminism ---

// wallClockFuncs are the time package functions that read or depend on the
// wall clock. Duration arithmetic and the time.Duration type stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// seededConstructors are the math/rand package-level names that build an
// explicitly seeded generator; every other package-level call uses the
// ambient global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// AmbientReport receives one ambient-nondeterminism site with the effect
// it exhibits (ReadsWallClock or SeedsRandAmbiently).
type AmbientReport func(pos token.Pos, effect Effect, format string, args ...any)

// ScanAmbient reports every wall-clock read and every use of the
// ambiently-seeded math/rand global source in body.
func ScanAmbient(info *types.Info, body ast.Node, report AmbientReport) {
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch PkgOf(info, sel.X) {
		case "time":
			if wallClockFuncs[sel.Sel.Name] {
				report(sel.Pos(), ReadsWallClock, "time.%s reads the wall clock", sel.Sel.Name)
			}
		case "math/rand", "math/rand/v2":
			if !seededConstructors[sel.Sel.Name] && isFuncOrVar(info, sel) {
				report(sel.Pos(), SeedsRandAmbiently, "rand.%s uses the ambient global source", sel.Sel.Name)
			}
		}
		return true
	})
}

// PkgOf resolves the package an identifier names, or "" if it is not a
// package qualifier.
func PkgOf(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// isFuncOrVar reports whether the selector names a function or variable
// (as opposed to a type such as rand.Rand, which is fine to mention).
func isFuncOrVar(info *types.Info, sel *ast.SelectorExpr) bool {
	switch info.Uses[sel.Sel].(type) {
	case *types.Func, *types.Var:
		return true
	}
	return false
}

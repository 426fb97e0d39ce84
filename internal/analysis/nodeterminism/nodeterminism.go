// Package nodeterminism forbids the three ambient sources of run-to-run
// variation in the packages whose output must be bit-identical at any
// -parallel: wall-clock reads (time.Now and friends), ambiently-seeded
// math/rand, and iteration over Go maps, whose order is deliberately
// randomized by the runtime.
//
// The one tolerated map-iteration shape is the standard collect-then-sort
// idiom: a range body consisting solely of appending the key to a slice
// that is later passed to a sort function in the same enclosing function.
//
// The wall-clock and ambient-rand rules are transitive: a function in a
// deterministic package must not call out-of-scope code that reads the
// wall clock or draws from the global rand source, however deep the
// offending site sits. Reachability comes from the funcfacts summaries,
// so the offender may live in any module package; callees inside the
// deterministic scope are exempt from the reachability report because
// their own sites are diagnosed directly where they occur.
package nodeterminism

import (
	"go/ast"
	"go/token"
	"go/types"

	"emuchick/internal/analysis"
	"emuchick/internal/analysis/funcfacts"
)

// sortFuncs are the sort/slices entry points that satisfy the
// collect-then-sort idiom when the collected key slice is their first
// argument.
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true, "Slice": true,
	"SliceStable": true, "Sort": true, "Stable": true,
	"SortFunc": true, "SortStableFunc": true,
}

// deterministicPackages is the contract's blast radius: the packages whose
// outputs feed figures, serialized artifacts, or traces.
var deterministicPackages = map[string]bool{
	"emuchick/internal/sim":         true,
	"emuchick/internal/kernels":     true,
	"emuchick/internal/metrics":     true,
	"emuchick/internal/report":      true,
	"emuchick/internal/experiments": true,
	"emuchick/internal/chaos":       true,
}

// Analyzer is the nodeterminism check.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc: "forbids wall-clock reads, ambiently-seeded math/rand, and unordered " +
		"map iteration in packages that must produce bit-identical results, " +
		"including through calls into out-of-scope code",
	Packages: func(path string) bool { return deterministicPackages[path] },
	Requires: []*analysis.Analyzer{funcfacts.Analyzer},
	Run:      run,
}

// ambientEffects are the callee-fact bits that violate determinism when
// reachable from a deterministic package.
var ambientEffects = []funcfacts.Effect{funcfacts.ReadsWallClock, funcfacts.SeedsRandAmbiently}

// advice completes a direct ambient site's report with its fix.
var advice = map[funcfacts.Effect]string{
	funcfacts.ReadsWallClock:     "; deterministic packages must derive every value from simulated time or seeded inputs",
	funcfacts.SeedsRandAmbiently: "; construct an explicitly seeded *rand.Rand instead",
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		funcfacts.ScanAmbient(pass.TypesInfo, f, func(pos token.Pos, e funcfacts.Effect, format string, args ...any) {
			pass.Reportf(pos, format+advice[e], args...)
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok {
				checkRange(pass, enclosingFunc(f, rng.Pos()), rng)
			}
			return true
		})
	}
	checkReachability(pass)
	return nil, nil
}

// checkReachability reports calls from this package into out-of-scope
// code whose facts carry a wall-clock or ambient-rand effect. Same-scope
// callees are skipped: their sites are diagnosed where they occur, and
// repeating the report at every caller up the chain would bury the one
// actionable diagnostic.
func checkReachability(pass *analysis.Pass) {
	facts := pass.ResultOf[funcfacts.Analyzer].(*funcfacts.Result)
	for _, n := range facts.Graph.Nodes {
		for _, edge := range n.Edges {
			callee := edge.Callee
			if callee.Pkg() == nil || callee.Pkg() == pass.Pkg || deterministicPackages[callee.Pkg().Path()] {
				continue
			}
			cf := facts.Lookup(pass, callee)
			if cf == nil {
				continue
			}
			for _, e := range ambientEffects {
				if cf.Has[e] && funcfacts.Propagates(edge.Kind, e, cf.Cold) {
					pass.Reportf(edge.Site, "call to %s reaches ambient nondeterminism (%s): %s",
						funcfacts.FuncLabel(callee, pass.Pkg), e, cf.Witness[e])
				}
			}
		}
	}
}

// enclosingFunc returns the innermost function declaration or literal whose
// body spans pos, for the collect-then-sort scan.
func enclosingFunc(f *ast.File, pos token.Pos) ast.Node {
	var fn ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || n.Pos() > pos || n.End() <= pos {
			return false
		}
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fn = n
		}
		return true
	})
	return fn
}

func checkRange(pass *analysis.Pass, fn ast.Node, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if isCollectThenSort(pass, fn, rng) {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration order is randomized; collect and sort the keys first (the collect-then-sort idiom is recognized)")
}

// isCollectThenSort recognizes
//
//	for k := range m { keys = append(keys, k) }
//	...
//	sort.Strings(keys)          // or sort.Ints/sort.Slice/slices.Sort*
//
// — the only map iteration whose effect is order-independent by
// construction. The body must be exactly one self-append of the range key,
// and the collected slice must flow into a sort call later in the same
// function.
func isCollectThenSort(pass *analysis.Pass, fn ast.Node, rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" || rng.Value != nil {
		return false
	}
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	if types.ExprString(call.Args[0]) != types.ExprString(asg.Lhs[0]) {
		return false
	}
	if arg, ok := call.Args[1].(*ast.Ident); !ok || arg.Name != key.Name {
		return false
	}
	slice := types.ExprString(asg.Lhs[0])
	sorted := false
	if fn == nil {
		return false
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg := funcfacts.PkgOf(pass.TypesInfo, sel.X)
		if (pkg == "sort" || pkg == "slices") && sortFuncs[sel.Sel.Name] &&
			types.ExprString(call.Args[0]) == slice {
			sorted = true
			return false
		}
		return true
	})
	return sorted
}

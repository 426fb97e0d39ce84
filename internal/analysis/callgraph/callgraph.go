// Package callgraph builds a per-package, CHA-style call graph from
// go/types information, the foundation of the interprocedural half of the
// emulint suite (see internal/analysis/funcfacts).
//
// The graph has one node per function or method declared in the package.
// Each node records every call its body can make, classified by how the
// callee was resolved:
//
//   - Static: a direct call of a declared function or a method on a
//     concrete receiver — the callee is known exactly.
//   - FuncValue: a call through a local variable whose bindings are all
//     resolvable function identifiers in the same body (best-effort
//     single-function-at-a-time value flow; a variable with any
//     unresolvable binding yields no edge instead).
//   - Interface: an interface method call, resolved by class-hierarchy
//     analysis over the visible type universe — the package itself plus
//     its transitive imports. Every named type in that universe whose
//     method set satisfies the interface contributes one edge to its
//     concrete method. CHA treats the visible universe as closed:
//     implementations defined only in downstream packages are invisible.
//
// Calls the builder cannot resolve at all — func-typed parameters and
// struct fields, package-level function variables, interface calls with no
// visible implementation — add no edge, so no effect crosses them.
//
// Function literals are attributed to the enclosing declaration: the
// effects and calls of a closure body count against the function that
// creates it. That over-approximates (a closure may never run) in exactly
// the conservative direction the contract analyzers need.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Kind classifies how an edge's callee was resolved.
type Kind int

const (
	// Static is a direct call of a declared function or concrete method.
	Static Kind = iota
	// FuncValue is a call through a local variable with resolvable bindings.
	FuncValue
	// Interface is an interface method call resolved by CHA.
	Interface
)

func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case FuncValue:
		return "funcvalue"
	case Interface:
		return "interface"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Edge is one resolved call.
type Edge struct {
	Site   token.Pos
	Kind   Kind
	Callee *types.Func
}

// Node is one declared function or method and everything its body (plus
// any function literals it contains) can call.
type Node struct {
	Func  *types.Func
	Decl  *ast.FuncDecl
	Edges []Edge
}

// Graph is the package's call graph. Nodes appear in declaration order, so
// iterating Nodes is deterministic.
type Graph struct {
	Nodes  []*Node
	ByFunc map[*types.Func]*Node
}

// Node returns the node for fn, or nil if fn is not declared in the
// graphed package.
func (g *Graph) Node(fn *types.Func) *Node { return g.ByFunc[fn] }

// Build constructs the call graph for one type-checked package. files,
// info, and pkg are the package's syntax, type information, and type
// object, exactly as an analysis.Pass carries them.
func Build(files []*ast.File, info *types.Info, pkg *types.Package) *Graph {
	b := &builder{
		info:  info,
		pkg:   pkg,
		impls: map[*types.Func][]*types.Func{},
	}
	b.universe = visibleUniverse(pkg)
	g := &Graph{ByFunc: map[*types.Func]*Node{}}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Func: obj, Decl: fd}
			b.walk(n, fd.Body)
			g.Nodes = append(g.Nodes, n)
			g.ByFunc[obj] = n
		}
	}
	return g
}

// visibleUniverse returns pkg plus its transitive imports, the closed world
// CHA resolves interface calls over, in deterministic order.
func visibleUniverse(pkg *types.Package) []*types.Package {
	seen := map[*types.Package]bool{pkg: true}
	order := []*types.Package{pkg}
	for i := 0; i < len(order); i++ {
		imps := append([]*types.Package{}, order[i].Imports()...)
		sort.Slice(imps, func(a, b int) bool { return imps[a].Path() < imps[b].Path() })
		for _, imp := range imps {
			if !seen[imp] {
				seen[imp] = true
				order = append(order, imp)
			}
		}
	}
	return order
}

type builder struct {
	info     *types.Info
	pkg      *types.Package
	universe []*types.Package
	// impls memoizes CHA resolution per abstract interface method.
	impls map[*types.Func][]*types.Func
	// named caches the universe's named-type inventory, built on first
	// interface resolution (most packages never need it).
	named []*types.Named
}

// walk scans one function body, including nested function literals.
func (b *builder) walk(n *Node, body *ast.BlockStmt) {
	// First pass: best-effort func-value bindings of local variables.
	bindings := b.collectBindings(body)
	ast.Inspect(body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		b.resolveCall(n, call, bindings)
		return true
	})
}

// funcBinding is the value-flow summary of one func-typed local variable.
type funcBinding struct {
	callees []*types.Func
	// unknown marks a variable with at least one unresolvable binding
	// (a call result, a parameter, a field load); calls through it add
	// no edge no matter what else was assigned.
	unknown bool
}

// collectBindings records, for every local variable in body, the set of
// functions it may hold — when every assignment to it is a resolvable
// function identifier or a function literal. Function literals contribute
// no callee (their bodies are attributed to the enclosing declaration).
func (b *builder) collectBindings(body *ast.BlockStmt) map[*types.Var]*funcBinding {
	bindings := map[*types.Var]*funcBinding{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		v, ok := b.info.Defs[id].(*types.Var)
		if !ok {
			if v, ok = b.info.Uses[id].(*types.Var); !ok {
				return
			}
		}
		if _, ok := v.Type().Underlying().(*types.Signature); !ok {
			return
		}
		bd := bindings[v]
		if bd == nil {
			bd = &funcBinding{}
			bindings[v] = bd
		}
		if rhs == nil {
			bd.unknown = true
			return
		}
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.FuncLit:
			return // body attributed to the encloser; no edge needed
		default:
			if fn := b.staticCallee(rhs); fn != nil {
				bd.callees = append(bd.callees, fn)
				return
			}
			_ = rhs
		}
		bd.unknown = true
	}
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			if len(node.Lhs) == len(node.Rhs) {
				for i := range node.Lhs {
					record(node.Lhs[i], node.Rhs[i])
				}
			} else {
				for _, lhs := range node.Lhs {
					record(lhs, nil) // multi-value unpacking: callee unknown
				}
			}
		case *ast.ValueSpec:
			if len(node.Names) == len(node.Values) {
				for i := range node.Names {
					record(node.Names[i], node.Values[i])
				}
			} else if len(node.Values) != 0 {
				for _, name := range node.Names {
					record(name, nil)
				}
			}
		}
		return true
	})
	return bindings
}

// staticCallee resolves an expression naming a declared function or a
// method value on a concrete receiver, or nil.
func (b *builder) staticCallee(e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := b.info.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := b.info.Selections[e]; ok {
			if sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok && !isAbstract(fn) {
					return fn
				}
			}
			return nil
		}
		// Package-qualified function: selection info is absent.
		if fn, ok := b.info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // generic instantiation f[T]
		return b.staticCallee(e.X)
	case *ast.IndexListExpr:
		return b.staticCallee(e.X)
	}
	return nil
}

// isAbstract reports whether fn is an interface method (no body anywhere).
func isAbstract(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	_, ok := recv.Type().Underlying().(*types.Interface)
	return ok
}

// resolveCall classifies one call expression into edges. A call it cannot
// resolve adds none, and neither does calling a function literal, whose
// body is attributed to the encloser.
func (b *builder) resolveCall(n *Node, call *ast.CallExpr, bindings map[*types.Var]*funcBinding) {
	fun := ast.Unparen(call.Fun)
	// Type conversions and builtins are not calls.
	if tv, ok := b.info.Types[fun]; ok && tv.IsType() {
		return
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := b.info.Uses[fun].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			n.Edges = append(n.Edges, Edge{Site: call.Pos(), Kind: Static, Callee: obj})
			return
		case *types.Var:
			b.resolveVarCall(n, call, obj, bindings)
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := b.info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				break
			}
			if !isAbstract(fn) {
				n.Edges = append(n.Edges, Edge{Site: call.Pos(), Kind: Static, Callee: fn})
				return
			}
			b.resolveInterfaceCall(n, call, fn)
			return
		}
		// Package-qualified: pkg.F (func). A function variable pkg.V or a
		// func-typed field may be rebound anywhere, so it adds no edge.
		if obj, ok := b.info.Uses[fun.Sel].(*types.Func); ok {
			n.Edges = append(n.Edges, Edge{Site: call.Pos(), Kind: Static, Callee: obj})
		}
		return
	case *ast.IndexExpr, *ast.IndexListExpr:
		if fn := b.staticCallee(fun); fn != nil {
			n.Edges = append(n.Edges, Edge{Site: call.Pos(), Kind: Static, Callee: fn})
		}
	}
}

// resolveVarCall handles a call through a named variable: local variables
// with fully resolved bindings become FuncValue edges. Anything else — a
// parameter, a variable with an unresolvable binding, a package-level
// function variable any init or caller may rebind — adds no edge.
func (b *builder) resolveVarCall(n *Node, call *ast.CallExpr, v *types.Var, bindings map[*types.Var]*funcBinding) {
	if bd, ok := bindings[v]; ok && !bd.unknown {
		for _, fn := range dedupFuncs(bd.callees) {
			n.Edges = append(n.Edges, Edge{Site: call.Pos(), Kind: FuncValue, Callee: fn})
		}
	}
}

// resolveInterfaceCall resolves x.M() where M is an interface method, by
// CHA over the visible universe.
func (b *builder) resolveInterfaceCall(n *Node, call *ast.CallExpr, m *types.Func) {
	for _, fn := range b.implementations(m) {
		n.Edges = append(n.Edges, Edge{Site: call.Pos(), Kind: Interface, Callee: fn})
	}
}

// implementations returns the concrete methods implementing abstract
// method m on any named type visible in the universe, memoized.
func (b *builder) implementations(m *types.Func) []*types.Func {
	if impls, ok := b.impls[m]; ok {
		return impls
	}
	iface, _ := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	var impls []*types.Func
	if iface != nil {
		for _, named := range b.namedTypes() {
			if _, ok := named.Underlying().(*types.Interface); ok {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Name() == m.Name() && !isAbstract(fn) {
					impls = append(impls, fn)
				}
			}
		}
	}
	impls = dedupFuncs(impls)
	b.impls[m] = impls
	return impls
}

// namedTypes inventories every named type declared at package scope across
// the universe, built lazily on the first interface call.
func (b *builder) namedTypes() []*types.Named {
	if b.named != nil {
		return b.named
	}
	b.named = []*types.Named{}
	for _, pkg := range b.universe {
		scope := pkg.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				b.named = append(b.named, named)
			}
		}
	}
	return b.named
}

// dedupFuncs sorts funcs deterministically (by full name, then position)
// and drops duplicates.
func dedupFuncs(fns []*types.Func) []*types.Func {
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].FullName() != fns[j].FullName() {
			return fns[i].FullName() < fns[j].FullName()
		}
		return fns[i].Pos() < fns[j].Pos()
	})
	out := fns[:0]
	var prev *types.Func
	for _, fn := range fns {
		if fn != prev {
			out = append(out, fn)
		}
		prev = fn
	}
	return out
}

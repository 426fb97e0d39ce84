package callgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"emuchick/internal/analysis"
	"emuchick/internal/analysis/callgraph"
)

func buildGraph(t *testing.T, src string) (*callgraph.Graph, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, info, err := analysis.Check(fset, nil, "p", "", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	return callgraph.Build([]*ast.File{f}, info, pkg), pkg
}

func node(t *testing.T, g *callgraph.Graph, pkg *types.Package, name string) *callgraph.Node {
	t.Helper()
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("no function %s", name)
	}
	n := g.Node(obj.(*types.Func))
	if n == nil {
		t.Fatalf("no node for %s", name)
	}
	return n
}

func calleeNames(n *callgraph.Node, kind callgraph.Kind) []string {
	var names []string
	for _, e := range n.Edges {
		if e.Kind == kind {
			names = append(names, e.Callee.Name())
		}
	}
	return names
}

const graphSrc = `package p

type I interface{ M() }

type T struct{}

func (T) M() {}

type J interface{ N() }

func target() {}

var Hook = target

func static() { target() }

func methodCall(t T) { t.M() }

func funcValue() {
	f := target
	f()
}

func funcParam(f func()) { f() }

func viaInterface(i I) { i.M() }

func noImpl(j J) { j.N() }

func viaHook() { Hook() }

func literal() {
	f := func() { target() }
	f()
}
`

func TestStaticCalls(t *testing.T) {
	g, pkg := buildGraph(t, graphSrc)
	if got := calleeNames(node(t, g, pkg, "static"), callgraph.Static); len(got) != 1 || got[0] != "target" {
		t.Fatalf("static edges = %v, want [target]", got)
	}
	if got := calleeNames(node(t, g, pkg, "methodCall"), callgraph.Static); len(got) != 1 || got[0] != "M" {
		t.Fatalf("concrete method edges = %v, want [M]", got)
	}
}

func TestFuncValueBinding(t *testing.T) {
	g, pkg := buildGraph(t, graphSrc)
	n := node(t, g, pkg, "funcValue")
	if got := calleeNames(n, callgraph.FuncValue); len(got) != 1 || got[0] != "target" {
		t.Fatalf("funcvalue edges = %v, want [target]", got)
	}
	if len(n.Edges) != 1 {
		t.Fatalf("resolved binding produced extra edges: %v", n.Edges)
	}
}

func TestFuncParamIsDynamic(t *testing.T) {
	g, pkg := buildGraph(t, graphSrc)
	n := node(t, g, pkg, "funcParam")
	if len(n.Edges) != 0 {
		t.Fatalf("call through a func parameter produced edges: %v", n.Edges)
	}
}

func TestInterfaceCHA(t *testing.T) {
	g, pkg := buildGraph(t, graphSrc)
	n := node(t, g, pkg, "viaInterface")
	if got := calleeNames(n, callgraph.Interface); len(got) != 1 || got[0] != "M" {
		t.Fatalf("interface edges = %v, want [M]", got)
	}
	if len(n.Edges) != 1 {
		t.Fatalf("CHA-resolved call produced extra edges: %v", n.Edges)
	}
}

func TestInterfaceNoImplIsDynamic(t *testing.T) {
	g, pkg := buildGraph(t, graphSrc)
	n := node(t, g, pkg, "noImpl")
	if len(n.Edges) != 0 {
		t.Fatalf("interface call with no visible implementation produced edges: %v", n.Edges)
	}
}

func TestPackageLevelFuncVarIsDynamic(t *testing.T) {
	g, pkg := buildGraph(t, graphSrc)
	n := node(t, g, pkg, "viaHook")
	if len(n.Edges) != 0 {
		t.Fatalf("call through a package-level function variable produced edges: %v", n.Edges)
	}
}

// TestFuncLitAttribution pins the closure policy: a literal's body counts
// against the enclosing declaration, and calling a lit-bound variable adds
// no edge of its own.
func TestFuncLitAttribution(t *testing.T) {
	g, pkg := buildGraph(t, graphSrc)
	n := node(t, g, pkg, "literal")
	if got := calleeNames(n, callgraph.Static); len(got) != 1 || got[0] != "target" {
		t.Fatalf("literal body edges = %v, want [target] attributed to encloser", got)
	}
	if len(n.Edges) != 1 {
		t.Fatalf("lit-bound call produced extra edges: %v", n.Edges)
	}
}

// TestDeterministicNodeOrder pins declaration order, which downstream
// fixpoints and diagnostics rely on.
func TestDeterministicNodeOrder(t *testing.T) {
	g, _ := buildGraph(t, "package p\n\nfunc b() {}\nfunc a() { b() }\nfunc c() { a() }\n")
	var order []string
	for _, n := range g.Nodes {
		order = append(order, n.Func.Name())
	}
	if strings.Join(order, ",") != "b,a,c" {
		t.Fatalf("node order = %v, want declaration order [b a c]", order)
	}
}

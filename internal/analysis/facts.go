package analysis

// Facts: the mechanism that makes the suite interprocedural. An analyzer
// attaches facts to functions of the package under analysis
// (Pass.ExportObjectFact) and reads facts off functions of the packages it
// imports (Pass.ImportObjectFact). The driver analyzes packages in
// dependency order, so by the time a package is analyzed every fact of
// every dependency exists.
//
// Facts live in one in-memory table for the whole run, keyed by the
// function object itself. That is sound because the loader type-checks
// every package once, into one universe (see Importer): the *types.Func a
// caller's call graph resolves is the very object its defining package
// exported the fact on. Facts attach to functions and methods only — every
// fact the suite computes is a per-function property.

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is an analyzer-defined property attached to a function and
// visible to analyses of downstream packages. Implementations must be
// pointers to structs, and AFact is a marker method only.
type Fact interface {
	AFact()
}

// factKey identifies one fact slot: a function and a concrete fact type
// (one fact of each type per function).
type factKey struct {
	fn  *types.Func
	typ reflect.Type
}

// ExportObjectFact attaches fact to fn, which must be a function or method
// of the package under analysis. The fact is visible to analyses of every
// package analyzed after this one.
func (p *Pass) ExportObjectFact(fn *types.Func, fact Fact) {
	if fn == nil || fact == nil {
		panic("analysis: ExportObjectFact with nil function or fact")
	}
	if fn.Pkg() != p.Pkg {
		panic(fmt.Sprintf("analysis: exporting fact for %v, which belongs to %v, not the package under analysis (%v)",
			fn, fn.Pkg(), p.Pkg))
	}
	p.facts[factKey{fn, reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies into fact the fact of fact's concrete type
// previously attached to fn, reporting whether one exists.
func (p *Pass) ImportObjectFact(fn *types.Func, fact Fact) bool {
	src, ok := p.facts[factKey{fn, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(src).Elem())
	return true
}

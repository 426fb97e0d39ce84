// Package root is the in-scope layer of the transitive nodeterminism
// suite: no ambient source appears in this package, but calls into
// depclock reach them — exactly the hole the per-package analyzer had.
package root

import "depclock"

func Result(x int) int64 {
	v := depclock.Pure(x) // in-scope call to a pure function: clean
	s := depclock.Stamp() // want `call to depclock\.Stamp reaches ambient nondeterminism \(reads-wall-clock\): time\.Now reads the wall clock`
	return int64(v) + s
}

func Mixed() int {
	return depclock.Draw() // want `call to depclock\.Draw reaches ambient nondeterminism \(seeds-rand-ambiently\): rand\.Int uses the ambient global source`
}

func Deep() int64 {
	return depclock.DeepStamp() // want `call to depclock\.DeepStamp reaches ambient nondeterminism \(reads-wall-clock\): calls Stamp .* time\.Now reads the wall clock`
}

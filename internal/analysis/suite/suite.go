// Package suite assembles the repo's two contract analyzers into the
// multichecker that cmd/emulint and the Makefile lint target share. The
// funcfacts analyzer rides along
// implicitly: the driver expands each analyzer's Requires closure, so
// every run computes the per-function effect facts the transitive checks
// consume.
package suite

import (
	"emuchick/internal/analysis"
	"emuchick/internal/analysis/hotpathalloc"
	"emuchick/internal/analysis/nodeterminism"
)

// Analyzers returns the full emulint suite, in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		hotpathalloc.Analyzer,
		nodeterminism.Analyzer,
	}
}

// Run loads the packages matching patterns (every package of the module
// when none are given) and runs the suite, returning every diagnostic
// plus per-analyzer timing.
func Run(cfg analysis.LoadConfig, patterns ...string) (*analysis.Results, error) {
	pkgs, err := analysis.Load(cfg, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.Run(pkgs, Analyzers())
}

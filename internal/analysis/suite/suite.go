// Package suite assembles the repo's five contract analyzers into the
// multichecker that cmd/emulint, the Makefile lint target, and the
// emuvalidate -lint claim all share. The funcfacts analyzer rides along
// implicitly: the driver expands each analyzer's Requires closure, so
// every run computes the per-function effect facts the transitive checks
// consume.
package suite

import (
	"emuchick/internal/analysis"
	"emuchick/internal/analysis/fingerprint"
	"emuchick/internal/analysis/hotpathalloc"
	"emuchick/internal/analysis/nodeterminism"
	"emuchick/internal/analysis/observerguard"
	"emuchick/internal/analysis/seedflow"
)

// Analyzers returns the full emulint suite, in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		fingerprint.Analyzer,
		hotpathalloc.Analyzer,
		nodeterminism.Analyzer,
		observerguard.Analyzer,
		seedflow.Analyzer,
	}
}

// Run loads the packages matching patterns (every package of the module
// when none are given) and runs the suite, returning the full results:
// every diagnostic including suppressed ones (Results.Findings drops
// those), plus per-analyzer timing.
func Run(cfg analysis.LoadConfig, patterns ...string) (*analysis.Results, error) {
	pkgs, err := analysis.Load(cfg, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.Run(pkgs, Analyzers())
}

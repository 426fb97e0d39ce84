package hotpathalloc

import (
	"testing"

	"emuchick/internal/analysis/analysistest"
)

func TestAnalyzer(t *testing.T) {
	analysistest.Run(t, "../testdata/src/hotpathalloc", Analyzer)
}

// TestTransitive drives the planted hotpath → helper → make violation:
// the allocation lives two calls away in another package, visible only
// through that package's exported facts. It also pins the two deliberate
// stops — //emu:cold callees and interface dispatch do not propagate
// Allocates.
func TestTransitive(t *testing.T) {
	analysistest.RunDirs(t, "../testdata/src/hotpathalloc_trans", Analyzer, "dep", "root")
}

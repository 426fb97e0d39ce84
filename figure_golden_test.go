package emuchick

// Figure-level goldens: the quick-scale figure JSON of every figure built on
// the Emu kernels, pinned to SHA-256 digests recorded from the goroutine
// implementations the kernels used to have, serially and with cells running
// in parallel. Each kernel now has one (continuation) implementation, so
// there is no second engine to diff against; these digests, with the
// kernel-level ones in internal/kernels/golden_test.go, are the oracle.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"emuchick/internal/experiments"
)

var figureGolden = map[string]string{
	"fig9a":                "2434fa82cc4699f8f374cda158468bb9aa472cc6ed1f09f1963145dcb12714a3",
	"extension-csx":        "6ee9bb98d4a534df59c3e360dbef1e1cfd70d7c7957d1459325832eea50870a1",
	"ablation-replication": "240f0b17b6ca7bf6e25d1bff7f16e80ba8f9410800fc658c5aa29d8474f0af05",
	"ablation-grain":       "f118abbc04a7e9c6395a21dd07f5ec7cc4615dcc659df99701240eabf87caba2",
	"fig4":                 "685d6a9066653c4dc1e2e8c9ab7c4b494a06e000e82f39da523f57b2811a9d96",
	"fig5":                 "5bfdc06b9117051c02a4792775e9bad8190dfae6a6ccda319b9a6de71ebb7c11",
	"fig6":                 "5568dbd1a4d8020ed9defac0c9b5e7a80faf355dd416c82f1a4c2f82973278e2",
	"fig8":                 "5e87709c7ff4f754715aa97ccda9b28eb4955dd11512f54c710e55fb9fc09c2e",
	"fig10":                "27fe35a6a75af281830603ce60515c469f10184b802d24921f14a97093617862",
	"fig11":                "7e4812934622d8081c5ca2a37c15d0a2a23300b7cf338c6cb40e8614aa753a89",
}

// checkFigureGoldens renders each figure at -parallel 1 and 4 and compares
// its digest with figureGolden.
func checkFigureGoldens(t *testing.T, ids ...string) {
	t.Helper()
	for _, id := range ids {
		for _, parallel := range []int{1, 4} {
			sum := sha256.Sum256(figuresJSON(t, id, experiments.WithParallel(parallel)))
			if got, want := hex.EncodeToString(sum[:]), figureGolden[id]; got != want {
				t.Errorf("%s -parallel %d: figure digest drifted\n\t%q: %q,", id, parallel, id, got)
			}
		}
	}
}

// TestIrregularFiguresGolden pins the figures built on SpMV, SpMV-CSX and
// GUPS.
func TestIrregularFiguresGolden(t *testing.T) {
	checkFigureGoldens(t, "fig9a", "extension-csx", "ablation-replication", "ablation-grain")
}

// TestMicrobenchmarkFiguresGolden pins the figures built on STREAM (Figs. 4,
// 5), pointer chasing (Figs. 6, 8) and ping-pong (Figs. 10, 11).
func TestMicrobenchmarkFiguresGolden(t *testing.T) {
	checkFigureGoldens(t, "fig4", "fig5", "fig6", "fig8", "fig10", "fig11")
}

package emuchick

// Figure-level goldens for the figures built on the SpMV, SpMV-CSX and GUPS
// kernels. These kernels have a single (continuation) implementation, so
// there is no second engine to diff against; instead the quick-scale figure
// JSON is pinned to SHA-256 digests recorded before the port, serially and
// with cells running in parallel.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"emuchick/internal/experiments"
)

var irregularFigureGolden = map[string]string{
	"fig9a":                "2434fa82cc4699f8f374cda158468bb9aa472cc6ed1f09f1963145dcb12714a3",
	"extension-csx":        "6ee9bb98d4a534df59c3e360dbef1e1cfd70d7c7957d1459325832eea50870a1",
	"ablation-replication": "240f0b17b6ca7bf6e25d1bff7f16e80ba8f9410800fc658c5aa29d8474f0af05",
	"ablation-grain":       "f118abbc04a7e9c6395a21dd07f5ec7cc4615dcc659df99701240eabf87caba2",
}

func TestIrregularFiguresGolden(t *testing.T) {
	for _, id := range []string{"fig9a", "extension-csx", "ablation-replication", "ablation-grain"} {
		for _, parallel := range []int{1, 4} {
			sum := sha256.Sum256(figuresJSON(t, id, experiments.WithParallel(parallel)))
			if got, want := hex.EncodeToString(sum[:]), irregularFigureGolden[id]; got != want {
				t.Errorf("%s -parallel %d: figure digest drifted\n\t%q: %q,", id, parallel, id, got)
			}
		}
	}
}

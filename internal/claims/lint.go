package claims

import (
	"fmt"
	"strings"

	"emuchick/internal/analysis"
	"emuchick/internal/analysis/suite"
	"emuchick/internal/experiments"
)

// Lint returns the static-analysis claim: the five contracts the emulint
// suite checks — determinism, hot-path, seed-flow, fingerprint, and
// observer-guard — hold across the source tree, transitively through the
// call-graph facts, not just where an annotation and an offending line
// share a body. It is not part of All() — it judges the source rather than
// the models — and emuvalidate appends it behind the -lint flag. The check
// runs the same analyzer suite as cmd/emulint, so it must execute inside
// the module (the loader shells out to the go tool).
func Lint() Claim {
	return Claim{
		ID:      "lint",
		Section: "repo contract",
		Statement: "The determinism, hot-path, seed-flow, fingerprint, and " +
			"observer-guard contracts hold everywhere, transitively across " +
			"the call graph (emulint is clean).",
		Check: checkLint,
	}
}

func checkLint(experiments.Options) (Verdict, error) {
	res, err := suite.Run(analysis.LoadConfig{}, "emuchick/...")
	if err != nil {
		return Verdict{}, err
	}
	diags := res.Findings()
	if len(diags) == 0 {
		return Verdict{Pass: true, Detail: "emulint clean over emuchick/..."}, nil
	}
	const maxListed = 3
	var b strings.Builder
	fmt.Fprintf(&b, "%d finding(s): ", len(diags))
	for i, d := range diags {
		if i == maxListed {
			fmt.Fprintf(&b, "; +%d more (run make lint)", len(diags)-i)
			break
		}
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(d.String())
	}
	return Verdict{Pass: false, Detail: b.String()}, nil
}

// Command emulint is the repo's contract multichecker: five analyzers
// (plus the funcfacts dependency they share) that turn the reproduction's
// determinism, hot-path, seed-flow, fingerprint, and observer-guard
// promises into compile-time checks (see DESIGN.md sections 12 and 17).
//
// Usage:
//
//	emulint [-list] [-json] [-v] [packages]
//
// Packages default to ./... and accept the go tool's pattern syntax; their
// module dependencies are analyzed too, for the facts the transitive checks
// need, but only the named packages' findings are reported. Test files are
// not analyzed. The exit status is 0 when every package is clean, 1 when
// there are findings, and 2 on an operational error. A finding is
// suppressed, one line and one analyzer at a time, with
// //lint:allow <analyzer> <reason>.
//
// -json emits every diagnostic — suppressed ones included, marked — as a
// JSON array on stdout, for CI annotation and tooling; the record schema
// is locked by TestJSONSchema. -v prints per-analyzer wall-clock cost to
// stderr after the run.
//
// emulint runs standalone: it type-checks every package from source, once,
// and runs the analyzers over them in dependency order within one process,
// so facts cross package boundaries in memory. The go vet -vettool
// protocol, which runs one process per package and needs compiler export
// data decoded via x/tools, is not implemented.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"emuchick/internal/analysis"
	"emuchick/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the machine-readable form of one diagnostic. The field
// set and JSON names are a stable contract (TestJSONSchema locks them);
// add fields, never rename or remove.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func toJSON(diags []analysis.Diagnostic) []jsonDiagnostic {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:       d.Pos.Filename,
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Suppressed: d.Suppressed,
		})
	}
	return out
}

func run(args []string, out, errOut *os.File) int {
	fs := flag.NewFlagSet("emulint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	list := fs.Bool("list", false, "list the suite's analyzers and exit")
	asJSON := fs.Bool("json", false, "emit all diagnostics (suppressed included) as a JSON array on stdout")
	verbose := fs.Bool("v", false, "report per-analyzer timing on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range suite.Analyzers() {
			fmt.Fprintf(out, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	res, err := suite.Run(analysis.LoadConfig{}, fs.Args()...)
	if err != nil {
		fmt.Fprintln(errOut, "emulint:", err)
		return 2
	}
	findings := res.Findings()
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(toJSON(res.Diagnostics)); err != nil {
			fmt.Fprintln(errOut, "emulint:", err)
			return 2
		}
	} else {
		for _, d := range findings {
			fmt.Fprintln(out, d)
		}
	}
	if *verbose {
		fmt.Fprintln(errOut, "emulint: analyzer timing:")
		for _, t := range res.Timing {
			fmt.Fprintf(errOut, "  %-15s %10v  %3d pkg(s)\n", t.Name, t.Duration.Round(1000), t.Packages)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(errOut, "emulint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

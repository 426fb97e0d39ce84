// Command emulint is the repo's contract multichecker: two analyzers (plus
// the funcfacts dependency they share) that check what a passing test run
// does not prove — that result-producing packages reach no wall clock,
// ambient rand or map order, and that //emu:hotpath functions never
// allocate (see DESIGN.md sections 12 and 17).
//
// Usage:
//
//	emulint [-list] [-v] [packages]
//
// Packages default to ./... and accept the go tool's pattern syntax; their
// module dependencies are analyzed too, for the facts the transitive checks
// need, but only the named packages' findings are reported. Test files are
// not analyzed. The exit status is 0 when every package is clean, 1 when
// there are findings, and 2 on an operational error. -v prints
// per-analyzer wall-clock cost to stderr after the run.
//
// emulint runs standalone: it type-checks every package from source, once,
// and runs the analyzers over them in dependency order within one process,
// so facts cross package boundaries in memory. The go vet -vettool
// protocol, which runs one process per package and needs compiler export
// data decoded via x/tools, is not implemented.
package main

import (
	"flag"
	"fmt"
	"os"

	"emuchick/internal/analysis"
	"emuchick/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut *os.File) int {
	fs := flag.NewFlagSet("emulint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	list := fs.Bool("list", false, "list the suite's analyzers and exit")
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
	for _, d := range res.Diagnostics {
		fmt.Fprintln(out, d)
	}
	if *verbose {
		fmt.Fprintln(errOut, "emulint: analyzer timing:")
		for _, t := range res.Timing {
			fmt.Fprintf(errOut, "  %-15s %10v  %3d pkg(s)\n", t.Name, t.Duration.Round(1000), t.Packages)
		}
	}
	if n := len(res.Diagnostics); n > 0 {
		fmt.Fprintf(errOut, "emulint: %d finding(s)\n", n)
		return 1
	}
	return 0
}

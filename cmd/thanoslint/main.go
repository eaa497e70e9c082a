// Command thanoslint runs the repository's domain-specific static-analysis
// suite (internal/lint) over a module tree and exits nonzero on any finding.
//
// Usage:
//
//	thanoslint [-debug] [-only names] [module-root]
//
// module-root defaults to the current directory and must contain go.mod.
// -debug additionally treats the thanosdebug build tag as satisfied, so the
// assertion-enabled variants of the hardware models are analyzed too.
// -only restricts the run to a comma-separated subset of analyzer names
// (e.g. -only goroutineleak,lockorder,snapshotsafety,wireproto — the
// check-lint2 fast-iteration target).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	debug := flag.Bool("debug", false, "analyze with the thanosdebug build tag satisfied")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()
	dir := "."
	if flag.NArg() > 0 {
		dir = flag.Arg(0)
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thanoslint:", err)
		os.Exit(2)
	}
	if err := run(dir, *debug, analyzers); err != nil {
		fmt.Fprintln(os.Stderr, "thanoslint:", err)
		os.Exit(2)
	}
}

// selectAnalyzers filters lint.All by the -only flag.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return lint.All, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range lint.All {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func run(dir string, debug bool, analyzers []*lint.Analyzer) error {
	l, err := lint.NewLoader(dir)
	if err != nil {
		return err
	}
	if debug {
		l.Tags["thanosdebug"] = true
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return err
	}
	u := lint.NewUnit(l.Fset, pkgs, lint.DefaultConfig())
	diags, err := lint.Run(u, analyzers)
	if err != nil {
		return err
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		fmt.Fprintf(os.Stderr, "thanoslint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	fmt.Printf("thanoslint: %d package(s) clean\n", len(pkgs))
	return nil
}

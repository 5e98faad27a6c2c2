// Command selfstab-lint is the repo's static-analysis gate: a
// multichecker over the internal/analyze suite (detrand, maporder,
// journalchoke, hotpath, obspure, testonly) that encodes the engine's
// standing invariants — deterministic stepping, journal completeness,
// zero-alloc hot paths, pure-observer instrumentation, no exported code
// that only tests use — as build-time checks. CI runs it over ./... and
// fails on any finding; scripts/lint.sh runs the same gate locally.
// testonly is whole-program, so a narrower package pattern reports names
// whose only users were not loaded.
//
// Usage:
//
//	selfstab-lint [-list] [packages]
//
// With no packages, ./... is checked. Diagnostics print as
// file:line:col: message (analyzer), one per line; the exit status is 1
// if anything was reported, 2 on operational errors (unparseable
// source, missing export data).
package main

import (
	"flag"
	"fmt"
	"os"

	"selfstab/internal/analyze"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: selfstab-lint [-list] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Static-analysis gate for the selfstab engine invariants.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analyze.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analyze.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfstab-lint:", err)
		os.Exit(2)
	}
	diags, err := analyze.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfstab-lint:", err)
		os.Exit(2)
	}
	if len(diags) == 0 {
		return
	}
	var fset = pkgs[0].Fset
	for _, d := range diags {
		fmt.Printf("%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	fmt.Fprintf(os.Stderr, "selfstab-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
	os.Exit(1)
}

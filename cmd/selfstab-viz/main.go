// Command selfstab-viz regenerates the paper's figures as SVG files (and
// prints an ASCII preview).
//
// Usage:
//
//	selfstab-viz -figure 2 -out figure2.svg     # grid without DAG
//	selfstab-viz -figure 3 -out figure3.svg     # grid with DAG
//	selfstab-viz -figure 1 -out figure1.svg     # the worked example
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"selfstab/internal/experiment"
)

const usage = "usage: selfstab-viz [-figure 1|2|3] [-out file.svg] [-seed n] [-r range] [-quiet]"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "selfstab-viz:", err)
		os.Exit(1)
	}
}

// run regenerates one figure, writing the caption and preview to out. A
// bad flag value or a stray argument is an error carrying the usage line;
// -h prints the usage line and the flags with their defaults to out and
// succeeds.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("selfstab-viz", flag.ContinueOnError)
	var (
		figure = fs.Int("figure", 3, "paper figure to regenerate: 1, 2 or 3")
		svg    = fs.String("out", "", "SVG output file (empty: skip SVG, print ASCII only)")
		seed   = fs.Int64("seed", 1, "random seed")
		r      = fs.Float64("r", 0.05, "transmission range (figures 2-3)")
		quiet  = fs.Bool("quiet", false, "suppress the ASCII preview")
	)
	fs.SetOutput(io.Discard)
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		fmt.Fprintln(out, usage)
		fs.SetOutput(out)
		fs.PrintDefaults()
		return nil
	case err != nil:
		return fmt.Errorf("%v\n%s", err, usage)
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q\n%s", fs.Arg(0), usage)
	}

	var fig *experiment.FigureResult
	var err error
	switch *figure {
	case 1:
		fig, err = experiment.Figure1()
	case 2:
		fig, err = experiment.FigureGrid(false, *seed, *r)
	case 3:
		fig, err = experiment.FigureGrid(true, *seed, *r)
	default:
		return fmt.Errorf("unknown figure %d (want 1, 2 or 3)", *figure)
	}
	if err != nil {
		return err
	}

	fmt.Fprintln(out, fig.Caption)
	if !*quiet {
		fmt.Fprintln(out, fig.ASCII)
	}
	if *svg != "" {
		if err := os.WriteFile(*svg, []byte(fig.SVG), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", *svg)
	}
	return nil
}

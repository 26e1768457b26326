// Command figures regenerates every figure and table analogue of the paper
// (experiments E1-E10 of DESIGN.md) and writes the report to stdout, or to a
// file with -o. EXPERIMENTS.md embeds this output.
//
// Usage:
//
//	figures [-o report.txt] [-only E5]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"worksteal/internal/experiments"
)

func main() {
	out := flag.String("o", "", "write the report to this file instead of stdout")
	only := flag.String("only", "", "run a single experiment (E1..E14, or E32, which the full report leaves out), e.g. -only E5")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	switch strings.ToUpper(*only) {
	case "":
		experiments.All(w)
	case "E1":
		experiments.E1Figure1(w)
	case "E2":
		experiments.E2Greedy(w)
	case "E3":
		experiments.E3LowerBound(w)
	case "E4":
		experiments.E4GreedyBound(w)
	case "E5":
		experiments.E5Dedicated(w)
	case "E6":
		experiments.E6Adversaries(w)
	case "E7":
		pts := experiments.E5Dedicated(io.Discard)
		pts = append(pts, experiments.E6Adversaries(io.Discard)...)
		experiments.E7Fit(w, pts)
	case "E8":
		experiments.E8Ablations(w)
	case "E9":
		experiments.E9Potential(w)
	case "E10":
		experiments.E10Structural(w)
	case "E11":
		experiments.E11RelatedWork(w)
	case "E12":
		experiments.E12SpeedupVsPA(w)
	case "E13":
		experiments.E13Schedulers(w)
	case "E14":
		experiments.E14Space(w)
	case "E32":
		experiments.E32LazyExposure(w)
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown experiment %q\n", *only)
		os.Exit(2)
	}
}

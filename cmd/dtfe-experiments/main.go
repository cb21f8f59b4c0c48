// Command dtfe-experiments regenerates the paper's evaluation figures
// (6-13). Each figure prints the same rows/series the paper plots plus the
// shape expectations to check against; see EXPERIMENTS.md for the recorded
// comparison.
//
// Usage:
//
//	dtfe-experiments [-scale 0.5] [-seed 7] [fig6 fig9 ...]
//
// With no figure arguments, all figures run in order.
package main

import (
	"flag"
	"fmt"
	"os"

	"godtfe/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale in (0,1]: shrinks datasets and grids")
	seed := flag.Int64("seed", 0, "random seed (0 = default)")
	artifacts := flag.String("artifacts", ".", "directory for image artifacts (fig1)")
	list := flag.Bool("list", false, "list available figures and exit")
	flag.Parse()
	if !(*scale > 0 && *scale <= 1) {
		fmt.Fprintf(os.Stderr, "dtfe-experiments: -scale %g: need a workload scale in (0, 1]\n", *scale)
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	drivers := experiments.All()
	opt := experiments.Options{Scale: *scale, Seed: *seed, ArtifactDir: *artifacts}
	for _, id := range ids {
		drv, ok := drivers[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (try -list)\n", id)
			os.Exit(2)
		}
		rep, err := drv(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		rep.Print(os.Stdout)
	}
}

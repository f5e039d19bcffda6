// Command tileplan builds the tiled physical layout of one benchmark
// design and prints its statistics: device, CLB usage, tile grid, per-tile
// slack, interface crossings, and the estimated critical path.
//
// Usage:
//
//	tileplan -design DES -overhead 0.2 -tilefrac 0.1
package main

import (
	"flag"
	"fmt"
	"os"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/timing"
)

func main() {
	var (
		design   = flag.String("design", "s9234", "benchmark design name")
		overhead = flag.Float64("overhead", 0.20, "resource slack for tiling")
		tilefrac = flag.Float64("tilefrac", 0.10, "tile size as fraction of the device")
		effort   = flag.Float64("effort", 0.5, "placement effort")
		seed     = flag.Int64("seed", 1, "random seed")
		list     = flag.Bool("list", false, "list available designs")
	)
	flag.Parse()
	if *list {
		for _, d := range bench.Catalog() {
			fmt.Printf("%-12s paper: %4d CLBs, sequential: %v\n", d.Name, d.PaperCLBs, d.Sequential)
		}
		return
	}
	info, err := bench.ByName(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tileplan:", err)
		os.Exit(1)
	}
	nl := info.Build()
	fmt.Printf("design %s: %v\n", info.Name, nl.Stats())
	l, err := core.Build(nl, core.Spec{
		Overhead: *overhead, TileFrac: *tilefrac, Seed: *seed, PlaceEffort: *effort,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tileplan:", err)
		os.Exit(1)
	}
	fmt.Printf("mapped:  %v\n", l.NL.Stats())
	fmt.Printf("device:  %v\n", l.Dev)
	fmt.Printf("CLBs:    %d used, %d sites (area overhead %.3f)\n",
		l.NumCLBs(), l.Dev.NumCLBSites(),
		float64(l.Dev.NumCLBSites())/float64(l.NumCLBs())-1)
	fmt.Printf("build:   %v\n", l.BuildEffort)

	used := l.TileUsage()
	free := l.TileFree()
	fmt.Printf("tiles:   %d\n", len(l.Tiles))
	for _, t := range l.Tiles {
		fmt.Printf("  tile %2d %-14s used %3d free %3d\n", t.ID, t.Rect.String(), used[t.ID], free[t.ID])
	}

	rep, err := timing.Analyze(l.TimingInput(), timing.DefaultModel())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tileplan:", err)
		os.Exit(1)
	}
	fmt.Printf("timing:  critical path %.2f ns (%d stages shown)\n", rep.Critical, len(rep.WorstPath))
	for _, n := range rep.WorstPath {
		if len(rep.WorstPath) <= 12 {
			fmt.Printf("  %-30s @ %.2f ns\n", n.Cell, n.Arrival)
		}
	}
}

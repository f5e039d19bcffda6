// Command benchrepro regenerates every table and figure of the paper's
// evaluation section and prints them as text tables, paper values
// alongside measured ones.
//
// Usage:
//
//	benchrepro -all
//	benchrepro -table1 -fig5 -designs "s9234,MIPS R2000,DES" -effort 1.0
//	benchrepro -faults 8          # random-pattern error-detection campaign
//	benchrepro -seu               # SEU vulnerability campaign (fault-parallel)
//
// Campaign turnaround is measured by the benchmark module in benchmark/.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/experiments"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "reproduce Table 1 (tiled layout statistics)")
		fig3      = flag.Bool("fig3", false, "reproduce Figure 3 (tiles affected by logic introduction)")
		fig4      = flag.Bool("fig4", false, "reproduce Figure 4 (maximum test logic size)")
		fig5      = flag.Bool("fig5", false, "reproduce Figure 5 (place-and-route speedup)")
		ablations = flag.Bool("ablations", false, "run the ablation studies")
		faultsN   = flag.Int("faults", 0, "run a fault campaign with this many injections per design")
		seu       = flag.Bool("seu", false, "run the SEU vulnerability campaign (64-lane fault-parallel universe scan)")
		fltPat    = flag.Int("fault-patterns", 64, "broadcast test patterns per fault for -seu")
		fltCyc    = flag.Int("fault-cycles", 2, "clock cycles each fault pattern is held")
		all       = flag.Bool("all", false, "run every table, figure and ablation")
		effort    = flag.Float64("effort", 0.5, "placement effort (1.0 = full anneal)")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "parallel design fan-out (0 = GOMAXPROCS)")
		designs   = flag.String("designs", "", "comma-separated design filter (default: all nine)")
	)
	flag.Parse()
	if *all {
		*table1, *fig3, *fig4, *fig5, *ablations = true, true, true, true, true
	}
	if !*table1 && !*fig3 && !*fig4 && !*fig5 && !*ablations && *faultsN == 0 && !*seu {
		flag.Usage()
		os.Exit(2)
	}
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "benchrepro:", err)
		os.Exit(1)
	}
	cfg := experiments.Config{PlaceEffort: *effort, Seed: *seed, Workers: *workers}
	if *designs != "" {
		for _, d := range strings.Split(*designs, ",") {
			name := strings.TrimSpace(d)
			// Reject unknown names up front — a silent no-match run looks
			// like success with empty tables.
			if _, err := bench.ByName(name); err != nil {
				die(err)
			}
			cfg.Designs = append(cfg.Designs, name)
		}
	}
	if *table1 {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatTable1(rows))
	}
	if *fig3 {
		series, err := experiments.Figure3(cfg)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatSeries(
			"Figure 3. Number of Tiles Affected by Logic Introduction (% affected tiles)",
			"#CLBs", series))
	}
	if *fig4 {
		series, err := experiments.Figure4(cfg)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatSeries(
			"Figure 4. Maximum Test Logic Size (CLBs per test point)",
			"#points", series))
	}
	if *fig5 {
		rows, err := experiments.Figure5(cfg)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatFigure5(rows))
	}
	if *ablations {
		sweep, err := experiments.OverheadSweep(cfg)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatOverheadSweep(sweep))
		clustered, err := experiments.Figure4Clustered(cfg)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatSeries(
			"Ablation: Figure 4 with clustered test points (all in one tile)",
			"#points", clustered))
		bounds, err := experiments.BoundaryAblation(cfg)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatBoundaryAblation(bounds))
	}
	if *faultsN > 0 {
		rows, err := experiments.FaultCampaign(cfg, *faultsN, 8, 4)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatFaultCampaign(rows))
	}
	if *seu {
		rows, err := experiments.SEUCampaign(cfg, *fltPat, *fltCyc)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatSEU(rows))
	}
}

// Command benchrepro regenerates every table and figure of the paper's
// evaluation section and prints them as text tables, paper values
// alongside measured ones.
//
// Usage:
//
//	benchrepro -all
//	benchrepro -table1 -fig5 -designs "s9234,MIPS R2000,DES" -effort 1.0
//	benchrepro -json              # sim micro-bench → BENCH_sim.json
//	benchrepro -json-service      # campaign-service load test → BENCH_service.json
//	benchrepro -seu               # SEU vulnerability campaign (fault-parallel)
//	benchrepro -json-faults       # fault-parallel vs serial scan → BENCH_faults.json
//	benchrepro -json-repair       # repair-candidate search campaign → BENCH_repair.json
//	benchrepro -json-stages       # per-stage telemetry + overhead → BENCH_stages.json
//	benchrepro -json-overlay      # debug-overlay probe switching → BENCH_overlay.json
package main

import (
	"encoding/json"
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
		jsonBench = flag.Bool("json", false, "run the simulator micro-benchmark and write BENCH_sim.json")
		jsonOut   = flag.String("json-out", "BENCH_sim.json", "output path for -json")
		simCycles = flag.Int("sim-cycles", 256, "stimulus depth of the -json micro-benchmark")
		simLanes  = flag.Int("lanes", 512, "parallel lanes of the wide -json rows (multiple of 64; 64 = width-1 only)")
		jsonSvc   = flag.Bool("json-service", false, "run the campaign-service load test and write BENCH_service.json")
		svcOut    = flag.String("json-service-out", "BENCH_service.json", "output path for -json-service")
		svcN      = flag.Int("service-campaigns", 64, "campaigns in the -json-service burst")
		svcW      = flag.Int("service-workers", 0, "service worker pool for -json-service (0 = GOMAXPROCS)")
		seu       = flag.Bool("seu", false, "run the SEU vulnerability campaign (64-lane fault-parallel universe scan)")
		jsonFlt   = flag.Bool("json-faults", false, "measure fault-parallel vs serial scan throughput and write BENCH_faults.json")
		fltOut    = flag.String("json-faults-out", "BENCH_faults.json", "output path for -json-faults")
		fltPat    = flag.Int("fault-patterns", 64, "broadcast test patterns per fault for -seu and -json-faults")
		fltCyc    = flag.Int("fault-cycles", 2, "clock cycles each fault pattern is held")
		serialCap = flag.Int("serial-cap", 192, "max faults the serial baseline replays per design for -json-faults")
		jsonMF    = flag.Bool("json-multifault", false, "run the multi-fault campaign (pairs, windowed SEUs, interconnect) and write BENCH_multifault.json")
		mfOut     = flag.String("json-multifault-out", "BENCH_multifault.json", "output path for -json-multifault")
		mfPairs   = flag.Int("max-pairs", 256, "sampled fault pairs per design for -json-multifault")
		mfSerCap  = flag.Int("pair-serial-cap", 96, "max pairs the serial baseline replays per design for -json-multifault")
		jsonRep   = flag.Bool("json-repair", false, "run the repair campaign (lane-parallel candidate search) and write BENCH_repair.json")
		repOut    = flag.String("json-repair-out", "BENCH_repair.json", "output path for -json-repair")
		repWords  = flag.Int("repair-words", 4, "detection stimulus blocks per repair attempt")
		repCyc    = flag.Int("repair-cycles", 2, "clock cycles each repair detection block is held")
		repMax    = flag.Int("repair-faults", 24, "max localizable faults injected and repaired per design")
		jsonStg   = flag.Bool("json-stages", false, "run the telemetry benchmark (per-stage shares + instrumentation overhead) and write BENCH_stages.json")
		stgOut    = flag.String("json-stages-out", "BENCH_stages.json", "output path for -json-stages")
		stgReps   = flag.Int("stage-repeats", 32, "warm repair campaigns per design and arm for the -json-stages overhead measurement")
		jsonStore = flag.Bool("json-store", false, "measure the durable store (journal throughput, recovery, resume, shard balance) and write BENCH_store.json")
		storeOut  = flag.String("json-store-out", "BENCH_store.json", "output path for -json-store")
		storeRecs = flag.Int("store-records", 2000, "journal records per append-throughput measurement for -json-store")
		jsonEco   = flag.Bool("json-eco", false, "measure the transactional incremental physical engine and write BENCH_eco.json")
		ecoOut    = flag.String("json-eco-out", "BENCH_eco.json", "output path for -json-eco")
		ecoRounds = flag.Int("eco-rounds", 4, "localization-style probe rounds per design for -json-eco")
		jsonOvl   = flag.Bool("json-overlay", false, "measure the pre-reserved debug overlay (zero-CAD probe switching + causal localizer) and write BENCH_overlay.json")
		ovlOut    = flag.String("json-overlay-out", "BENCH_overlay.json", "output path for -json-overlay")
		ovlRounds = flag.Int("overlay-rounds", 8, "timed probe-switch rounds per design for -json-overlay")
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
	if !*table1 && !*fig3 && !*fig4 && !*fig5 && !*ablations && *faultsN == 0 && !*jsonBench && !*jsonSvc && !*seu && !*jsonFlt && !*jsonMF && !*jsonRep && !*jsonEco && !*jsonOvl && !*jsonStg && !*jsonStore {
		flag.Usage()
		os.Exit(2)
	}
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "benchrepro:", err)
		os.Exit(1)
	}
	// Probe every selected -json-* destination before running anything:
	// the JSON benchmarks run for minutes, and discovering an unwritable
	// output path only after they finish throws the whole run away.
	for _, out := range []struct {
		on         bool
		flag, path string
	}{
		{*jsonBench, "-json-out", *jsonOut},
		{*jsonFlt, "-json-faults-out", *fltOut},
		{*jsonMF, "-json-multifault-out", *mfOut},
		{*jsonRep, "-json-repair-out", *repOut},
		{*jsonStg, "-json-stages-out", *stgOut},
		{*jsonEco, "-json-eco-out", *ecoOut},
		{*jsonOvl, "-json-overlay-out", *ovlOut},
		{*jsonSvc, "-json-service-out", *svcOut},
		{*jsonStore, "-json-store-out", *storeOut},
	} {
		if out.on {
			if err := probeOutput(out.flag, out.path); err != nil {
				die(err)
			}
		}
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
	if *jsonBench {
		if *simLanes < 64 || *simLanes%64 != 0 {
			die(fmt.Errorf("-lanes must be a positive multiple of 64, got %d", *simLanes))
		}
		widths := []int{1}
		if w := *simLanes / 64; w > 1 {
			widths = append(widths, w)
		}
		rows, err := experiments.SimBench(cfg, *simCycles, widths)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatSimBench(rows))
		cycles := *simCycles
		if len(rows) > 0 {
			cycles = rows[0].Cycles // SimBench clamps; record what actually ran
		}
		blob, err := json.MarshalIndent(struct {
			Cycles int                       `json:"cycles"`
			Rows   []experiments.SimBenchRow `json:"rows"`
		}{cycles, rows}, "", "  ")
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *seu {
		rows, err := experiments.SEUCampaign(cfg, *fltPat, *fltCyc)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatSEU(rows))
	}
	if *jsonFlt {
		rows, err := experiments.FaultScanBench(cfg, *fltPat, *fltCyc, *serialCap)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatFaultBench(rows))
		blob, err := json.MarshalIndent(struct {
			Patterns int                         `json:"patterns"`
			Cycles   int                         `json:"cycles"`
			Rows     []experiments.FaultBenchRow `json:"rows"`
		}{*fltPat, *fltCyc, rows}, "", "  ")
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*fltOut, append(blob, '\n'), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", *fltOut)
	}
	if *jsonMF {
		rows, err := experiments.MultiFaultCampaign(cfg, *fltPat, *fltCyc, *mfPairs, *mfSerCap)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatMultiFault(rows))
		blob, err := json.MarshalIndent(struct {
			Patterns int                         `json:"patterns"`
			Cycles   int                         `json:"cycles"`
			MaxPairs int                         `json:"max_pairs"`
			Rows     []experiments.MultiFaultRow `json:"rows"`
		}{*fltPat, *fltCyc, *mfPairs, rows}, "", "  ")
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*mfOut, append(blob, '\n'), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", *mfOut)
	}
	if *jsonRep {
		rows, err := experiments.RepairCampaign(cfg, *repWords, *repCyc, *repMax)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatRepair(rows))
		blob, err := json.MarshalIndent(struct {
			Words     int                     `json:"words"`
			Cycles    int                     `json:"cycles"`
			MaxFaults int                     `json:"max_faults"`
			Rows      []experiments.RepairRow `json:"rows"`
		}{*repWords, *repCyc, *repMax, rows}, "", "  ")
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*repOut, append(blob, '\n'), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", *repOut)
	}
	if *jsonStg {
		rep, err := experiments.TelemetryBench(cfg, *repWords, *repCyc, *stgReps)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatStages(rep))
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*stgOut, append(blob, '\n'), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", *stgOut)
	}
	if *jsonEco {
		rows, err := experiments.ECOBench(cfg, *ecoRounds)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatECO(rows))
		blob, err := json.MarshalIndent(struct {
			Rounds int                  `json:"rounds"`
			Rows   []experiments.ECORow `json:"rows"`
		}{*ecoRounds, rows}, "", "  ")
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*ecoOut, append(blob, '\n'), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", *ecoOut)
	}
	if *jsonOvl {
		rows, err := experiments.OverlayBench(cfg, *ovlRounds)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatOverlay(rows))
		blob, err := json.MarshalIndent(struct {
			Rounds int                      `json:"rounds"`
			Rows   []experiments.OverlayRow `json:"rows"`
		}{*ovlRounds, rows}, "", "  ")
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*ovlOut, append(blob, '\n'), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", *ovlOut)
	}
	if *jsonStore {
		rep, err := experiments.StoreBench(cfg, *storeRecs)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatStoreBench(rep))
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*storeOut, append(blob, '\n'), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", *storeOut)
	}
	if *jsonSvc {
		rep, err := experiments.ServiceLoadTest(cfg, *svcN, *svcW)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatServiceLoad(rep))
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*svcOut, append(blob, '\n'), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s\n", *svcOut)
	}
}

// probeOutput reports whether path can be created or overwritten,
// without clobbering existing content: an existing file is opened for
// append and left untouched; a file the probe had to create is removed
// again so a failed run leaves no empty artifact behind.
func probeOutput(flagName, path string) error {
	if path == "" {
		return fmt.Errorf("%s: empty output path", flagName)
	}
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("%s: output path %q is not writable: %w", flagName, path, err)
	}
	f.Close()
	if statErr != nil && os.IsNotExist(statErr) {
		os.Remove(path)
	}
	return nil
}

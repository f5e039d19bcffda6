// Command fpgadbg runs one campaign of the paper's emulation-debugging
// loop on a benchmark design: a design error is injected, the design is
// tiled and "emulated", and the detect → localize → correct cycle runs
// until clean, reporting the tile-local CAD effort against the cost of
// full re-place-and-route.
//
// Usage:
//
//	fpgadbg -design c880 -fault-seed 3 -tilefrac 0.1
//
// Every run goes through the campaign service pipeline the fpgadbgd
// daemon runs. Without -remote the campaign executes on an in-process
// service; with -remote it is submitted to a running daemon. Either way
// progress events stream as the campaign works and the same result
// summary is printed when it finishes, so one spec gives one digest:
//
//	fpgadbg -design c880 -fault-seed 3 -remote http://localhost:8080
//
// -kind faultscan switches from the debugging loop to an exhaustive
// fault-universe scan (stuck-ats per net + LUT-bit flips, -sim-lanes
// mutants per simulator pass); -use-dict attaches the fault-dictionary
// localizer to a debug campaign:
//
//	fpgadbg -design 9sym -kind faultscan -patterns 128
//	fpgadbg -design c880 -fault-seed 3 -use-dict
//
// -kind repair corrects by lane-parallel repair-candidate search instead
// of copying the suspect cells from the golden netlist: candidates (bit
// flips, pin swaps, resynthesized truth tables) are validated per trace
// replay against the golden model acting purely as an output oracle, and
// the winner flows through the tile-local ECO path. An inconclusive
// search falls back to the golden copy:
//
//	fpgadbg -design 9sym -fault-seed 2 -kind repair
//
// -trace-out FILE appends the campaign's per-stage timing (the same
// StageTrace the daemon serves at GET /campaigns/{id}/trace) to FILE as
// one NDJSON line, for every campaign kind:
//
//	fpgadbg -design 9sym -fault-seed 2 -kind repair -trace-out traces.ndjson
//
// -overlay pre-reserves a time-multiplexed debug overlay at build time
// (spare routing tracks + tap-mux trunks covering every LUT output):
// localization probe rounds become pure configuration switches with zero
// incremental place/route, and the causal-chain localizer ranks suspects
// by causal distance from the first mismatching cycle:
//
//	fpgadbg -design s9234 -fault-seed 2 -overlay
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"fpgadbg/internal/obs"
	"fpgadbg/internal/service"
)

func main() {
	// Spec knobs default to zero so service.Spec's own defaults apply.
	var (
		design     = flag.String("design", "c880", "benchmark design name")
		faultSeed  = flag.Int64("fault-seed", 1, "seed selecting the injected design error")
		overhead   = flag.Float64("overhead", 0, "resource slack for tiling (0 = 0.20)")
		tilefrac   = flag.Float64("tilefrac", 0, "tile size as fraction of the device (0 = 0.10)")
		effort     = flag.Float64("effort", 0, "placement effort (0 = 0.5)")
		seed       = flag.Int64("seed", 1, "layout seed")
		words      = flag.Int("words", 0, "random stimulus blocks (64 patterns each) per detection (0 = 8)")
		cycles     = flag.Int("cycles", 0, "clock cycles per stimulus block (0 = 4, or 2 with -kind faultscan)")
		kind       = flag.String("kind", "debug", "campaign kind: debug (the full loop), faultscan (exhaustive fault-universe scan) or repair (candidate-search correction)")
		patterns   = flag.Int("patterns", 0, "broadcast test patterns for -kind faultscan (0 = 64)")
		faultModel = flag.String("fault-model", "", "faultscan fault model: single (default), pair (lane-packed pairs + syndrome composition), seu (transient windowed upsets) or interconnect (bridges + route stuck-ats)")
		simLanes   = flag.Int("sim-lanes", 0, "simulator lanes for fault batches and candidate validation (multiple of 64; 0 = 64)")
		useDict    = flag.Bool("use-dict", false, "consult a fault dictionary before inserting probes (debug campaigns)")
		useOverlay = flag.Bool("overlay", false, "pre-reserve a debug overlay at build time: probe rounds become zero-CAD tap-mux switches and the causal-chain localizer ranks suspects (debug/repair campaigns)")
		remote     = flag.String("remote", "", "submit to a fpgadbgd daemon at this base URL instead of running in-process")
		priority   = flag.Int("priority", 0, "queue priority for -remote (higher runs first)")
		traceOut   = flag.String("trace-out", "", "append the campaign's per-stage trace to this file as one NDJSON line")
	)
	flag.Parse()
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "fpgadbg:", err)
		os.Exit(1)
	}
	// One spec, validated the same way whether the campaign runs here or
	// on a daemon.
	spec := service.Spec{
		Design: *design, Kind: *kind, FaultSeed: *faultSeed, Seed: *seed,
		Overhead: *overhead, TileFrac: *tilefrac, PlaceEffort: *effort,
		Words: *words, Cycles: *cycles, Patterns: *patterns, FaultModel: *faultModel,
		UseDict: *useDict, Overlay: *useOverlay, Priority: *priority, SimLanes: *simLanes,
	}
	if err := spec.Validate(); err != nil {
		die(err)
	}
	var (
		res *service.Result
		err error
	)
	if *remote != "" {
		res, err = runRemote(*remote, spec)
	} else {
		res, err = runLocal(spec)
	}
	if err != nil {
		die(err)
	}
	printResult(res)
	if *traceOut != "" {
		if err := writeTraceOut(*traceOut, res.Trace); err != nil {
			die(err)
		}
	}
}

// runLocal runs the campaign on an in-process single-worker service,
// printing its events as they arrive.
func runLocal(spec service.Spec) (*service.Result, error) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	id, err := svc.Submit(spec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("== campaign %s running in-process ==\n", id)
	past, live, unsub, err := svc.Events(id)
	if err != nil {
		return nil, err
	}
	defer unsub()
	for _, ev := range past {
		printEvent(ev)
	}
	for ev := range live {
		printEvent(ev)
	}
	return svc.Wait(context.Background(), id)
}

// runRemote submits the campaign to a daemon, streams its progress and
// returns its result.
func runRemote(base string, spec service.Spec) (*service.Result, error) {
	ctx := context.Background()
	cl := &service.Client{Base: base}
	if err := cl.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("daemon unreachable: %w", err)
	}
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("== campaign %s submitted to %s ==\n", st.ID, base)
	if err := cl.Events(ctx, st.ID, printEvent); err != nil {
		return nil, err
	}
	return cl.Wait(ctx, st.ID, 0)
}

func printEvent(ev service.Event) {
	if ev.Round > 0 {
		fmt.Printf("[%s #%d] %s\n", ev.Stage, ev.Round, ev.Msg)
	} else {
		fmt.Printf("[%s] %s\n", ev.Stage, ev.Msg)
	}
}

// printResult prints a finished campaign's summary.
func printResult(res *service.Result) {
	fmt.Println("== result ==")
	if res.FaultsTotal > 0 {
		fmt.Printf("fault universe: %d faults in %d batches\n", res.FaultsTotal, res.FaultBatches)
		fmt.Printf("detected %d (%.1f%% coverage), mean latency %.1f cycles, %.0f faults/sec\n",
			res.FaultsDetected, 100*res.FaultCoverage, res.MeanLatencyCycles, res.FaultsPerSec)
	} else {
		fmt.Printf("injected error: %s\n", res.Injected)
		fmt.Printf("detected=%v clean=%v iterations=%d rounds=%d probes=%d dict=%d fixed=%v\n",
			res.Detected, res.Clean, res.Iterations, res.Rounds, res.ProbesInserted, res.DictResolved, res.Fixed)
		if res.Repaired > 0 || res.RepairFallback {
			fmt.Printf("repair: %d candidate-search fix(es) (%s), %d candidate(s), %d survivor(s), %d lane batch(es), eco-verified=%v, fallback=%v\n",
				res.Repaired, res.RepairKind, res.Candidates, res.Survivors, res.CandidateBatches,
				res.ECOVerified, res.RepairFallback)
		}
		if res.Overlay {
			fmt.Printf("overlay: %d zero-CAD tap switch(es), %d CAD fallback round(s)\n",
				res.OverlaySwitches, res.OverlayFallbacks)
		}
		switch {
		case res.Rounds+res.Iterations == 0:
			fmt.Printf("tile-local work 0 vs full re-P&R %.0f — no physical update\n", res.FullWork)
		case res.TileWork == 0:
			fmt.Printf("tile-local work 0 vs full re-P&R %.0f — configuration-only update(s), no CAD work\n", res.FullWork)
		default:
			fmt.Printf("tile-local work %.0f vs full re-P&R %.0f — %.1fx per physical update\n",
				res.TileWork, res.FullWork, res.SpeedupPerIter)
		}
	}
	fmt.Printf("artifact cache: %d hit(s), %d miss(es); wall %.1fms; digest %s\n",
		res.CacheHits, res.CacheMisses, res.WallMs, res.Digest)
}

// writeTraceOut appends one StageTrace as an NDJSON line and prints a
// one-line summary of what was written.
func writeTraceOut(path string, st *obs.StageTrace) error {
	if st == nil {
		return fmt.Errorf("-trace-out: campaign carries no stage trace")
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	if err := obs.NewTraceLog(f).Write(st); err != nil {
		f.Close()
		return fmt.Errorf("-trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	fmt.Printf("trace:    %d stage(s), wall %.1fms -> %s\n",
		len(st.Stages), float64(st.WallUs)/1000, path)
	return nil
}

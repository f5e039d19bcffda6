// Command fpgadbg runs the paper's full emulation-debugging loop on a
// benchmark design: a design error is injected, the design is tiled and
// "emulated", and the detect → localize → correct cycle runs until clean,
// reporting the tile-local CAD effort of every step against the cost of
// full re-place-and-route.
//
// Usage:
//
//	fpgadbg -design c880 -fault-seed 3 -tilefrac 0.1
//
// With -remote the campaign is submitted to a running fpgadbgd daemon
// instead of executing in-process; progress events stream back as the
// daemon works and the result summary is printed when it finishes:
//
//	fpgadbg -design c880 -fault-seed 3 -remote http://localhost:8080
//
// -kind faultscan switches from the debugging loop to an exhaustive
// fault-universe scan (stuck-ats per net + LUT-bit flips, 64 mutants per
// simulator pass), locally or against the daemon; -use-dict attaches the
// fault-dictionary localizer to a debug campaign:
//
//	fpgadbg -design 9sym -kind faultscan -patterns 128
//	fpgadbg -design c880 -fault-seed 3 -use-dict -remote http://localhost:8080
//
// -repair corrects by lane-parallel repair-candidate search instead of
// copying the suspect cells from the golden netlist: candidates (bit
// flips, pin swaps, resynthesized truth tables) are validated 64 per
// trace replay against the golden model acting purely as an output
// oracle, and the winner flows through the tile-local ECO path. An
// inconclusive search falls back to the golden copy. With -remote this
// submits a "repair" campaign kind:
//
//	fpgadbg -design 9sym -fault-seed 2 -repair
//	fpgadbg -design c880 -fault-seed 3 -repair -remote http://localhost:8080
//
// -trace-out FILE appends the campaign's per-stage timing (the same
// StageTrace the daemon serves at GET /campaigns/{id}/trace) to FILE as
// one NDJSON line — locally by instrumenting the loop in-process, with
// -remote by fetching the daemon's trace after the campaign finishes:
//
//	fpgadbg -design 9sym -fault-seed 2 -repair -trace-out traces.ndjson
//
// -overlay pre-reserves a time-multiplexed debug overlay at build time
// (spare routing tracks + tap-mux trunks covering every LUT output):
// localization probe rounds become pure configuration switches with zero
// incremental place/route, and the causal-chain localizer ranks suspects
// by causal distance from the first mismatching cycle. With -remote this
// sets the campaign's overlay flag instead:
//
//	fpgadbg -design s9234 -fault-seed 2 -overlay
//
// -timing attaches the incremental timing engine to a local run: the
// critical-path delay is tracked across every tile-local physical update
// at cone cost (delta STA) and verified bit-identical against a full
// analysis at the end:
//
//	fpgadbg -design c880 -fault-seed 3 -timing
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/debug"
	"fpgadbg/internal/experiments"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/overlay"
	"fpgadbg/internal/service"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
	"fpgadbg/internal/timing"
)

func main() {
	var (
		design     = flag.String("design", "c880", "benchmark design name")
		faultSeed  = flag.Int64("fault-seed", 1, "seed selecting the injected design error")
		overhead   = flag.Float64("overhead", 0.20, "resource slack for tiling")
		tilefrac   = flag.Float64("tilefrac", 0.10, "tile size as fraction of the device")
		effort     = flag.Float64("effort", 0.5, "placement effort")
		seed       = flag.Int64("seed", 1, "layout seed")
		words      = flag.Int("words", 8, "random stimulus blocks (64 patterns each) per detection")
		cycles     = flag.Int("cycles", 4, "clock cycles per stimulus block")
		kind       = flag.String("kind", "debug", "campaign kind: debug (the full loop), faultscan (exhaustive fault-universe scan) or repair (candidate-search correction)")
		patterns   = flag.Int("patterns", 64, "broadcast test patterns for -kind faultscan")
		faultModel = flag.String("fault-model", "", "faultscan fault model: single (default), pair (lane-packed pairs + syndrome composition), seu (transient windowed upsets) or interconnect (bridges + route stuck-ats)")
		simLanes   = flag.Int("sim-lanes", 0, "simulator lanes for fault batches and candidate validation (multiple of 64; 0 = 64)")
		useDict    = flag.Bool("use-dict", false, "consult a fault dictionary before inserting probes (debug campaigns)")
		useOverlay = flag.Bool("overlay", false, "pre-reserve a debug overlay at build time: probe rounds become zero-CAD tap-mux switches and the causal-chain localizer ranks suspects (debug/repair campaigns)")
		repairSrch = flag.Bool("repair", false, "correct by repair-candidate search (golden as oracle only); shorthand for -kind repair")
		showTiming = flag.Bool("timing", false, "track the critical path across the loop with the incremental timing engine (local runs)")
		remote     = flag.String("remote", "", "submit to a fpgadbgd daemon at this base URL instead of running locally")
		priority   = flag.Int("priority", 0, "queue priority for -remote (higher runs first)")
		traceOut   = flag.String("trace-out", "", "append the campaign's per-stage trace to this file as one NDJSON line")
	)
	flag.Parse()
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "fpgadbg:", err)
		os.Exit(1)
	}
	if *words < 1 || *cycles < 1 {
		die(fmt.Errorf("-words and -cycles must be >= 1 (got %d, %d)", *words, *cycles))
	}
	if *repairSrch && *kind == service.KindFaultScan {
		die(fmt.Errorf("-repair does not apply to -kind faultscan"))
	}
	if *repairSrch && *kind == service.KindDebug {
		*kind = service.KindRepair
	}
	if *kind == service.KindRepair {
		*repairSrch = true
	}
	info, err := bench.ByName(*design)
	if err != nil {
		die(err)
	}
	// One spec, validated the same way whether the campaign runs here or
	// on a daemon.
	spec := service.Spec{
		Design: info.Name, Kind: *kind, FaultSeed: *faultSeed, Seed: *seed,
		Overhead: *overhead, TileFrac: *tilefrac, PlaceEffort: *effort,
		Words: *words, Cycles: *cycles, Patterns: *patterns, FaultModel: *faultModel,
		UseDict: *useDict, Overlay: *useOverlay, Priority: *priority, SimLanes: *simLanes,
	}
	if err := spec.Validate(); err != nil {
		die(err)
	}
	if *remote != "" {
		if err := runRemote(*remote, *traceOut, spec); err != nil {
			die(err)
		}
		return
	}
	if *kind == service.KindFaultScan {
		// Local faultscan: the SEU campaign restricted to one design. It
		// runs outside the span-instrumented loop, so -trace-out would be
		// empty — refuse rather than write a bogus trace.
		if *traceOut != "" {
			die(fmt.Errorf("-trace-out with -kind faultscan needs -remote (local scans are untraced)"))
		}
		if *faultModel != "" && *faultModel != service.FaultModelSingle {
			// Multi-fault models run the full three-model campaign locally
			// restricted to this design; the service splits them per model
			// for -remote.
			rows, err := experiments.MultiFaultCampaign(experiments.Config{
				Designs: []string{info.Name}, Seed: *seed, Workers: 1,
			}, *patterns, *cycles, 0)
			if err != nil {
				die(err)
			}
			fmt.Print(experiments.FormatMultiFault(rows))
			return
		}
		rows, err := experiments.SEUCampaign(experiments.Config{
			Designs: []string{info.Name}, Seed: *seed, Workers: 1,
		}, *patterns, *cycles)
		if err != nil {
			die(err)
		}
		fmt.Print(experiments.FormatSEU(rows))
		return
	}

	// Local telemetry: one trace spanning build + debug loop, flushed as
	// NDJSON on every exit path that completes a campaign.
	var trace *obs.Trace
	if *traceOut != "" {
		trace = obs.NewTrace("local", info.Name, *kind, nil)
	}
	flushTrace := func() {
		if trace == nil {
			return
		}
		if err := writeTraceOut(*traceOut, trace.Finish()); err != nil {
			die(err)
		}
	}
	fmt.Printf("== %s: synthesize + map ==\n", info.Name)
	golden, err := synth.TechMap(info.Build())
	if err != nil {
		die(err)
	}
	fmt.Printf("golden: %v\n", golden.Stats())

	impl := golden.Clone()
	inj, err := faults.InjectRandom(impl, *faultSeed)
	if err != nil {
		die(err)
	}
	fmt.Printf("injected design error: %v\n", inj)

	fmt.Printf("== place-and-route with %.0f%% slack, draw tiles, lock interfaces ==\n", *overhead*100)
	cs := core.Spec{
		Overhead: *overhead, TileFrac: *tilefrac, Seed: *seed, PlaceEffort: *effort,
		Obs: trace,
	}
	if *useOverlay {
		cs.OverlayReserve = overlay.DefaultReserve
	}
	lay, err := core.BuildMapped(impl, cs)
	if err != nil {
		die(err)
	}
	lay.SetObs(trace) // BuildMapped detaches after the initial build
	fmt.Printf("device %v, %d tiles, build effort: %v\n", lay.Dev, len(lay.Tiles), lay.BuildEffort)
	var plan *overlay.Plan
	if *useOverlay {
		plan, err = overlay.Build(lay, overlay.DefaultChannels)
		if err != nil {
			die(err)
		}
		fmt.Printf("overlay:  %d channels over %d taps, trunk wirelength %d (routed once, locked)\n",
			plan.Channels, plan.Taps, plan.TrunkLen)
	}

	// Delta timing: every physical update from here on resynchronizes
	// arrival times through the touched cones only.
	reportTiming := func(stage string) {}
	if *showTiming {
		if err := lay.EnableTiming(timing.DefaultModel()); err != nil {
			die(err)
		}
		crit, _ := lay.CriticalDelay()
		fmt.Printf("timing:   critical path %.2f ns (full analysis)\n", crit)
		reportTiming = func(stage string) {
			crit, _ := lay.CriticalDelay()
			eng := lay.TimingEngine()
			fmt.Printf("timing:   after %s: critical path %.2f ns (delta STA recomputed %d of %d cells over %d update(s))\n",
				stage, crit, eng.LastCone, eng.LiveCells, eng.Updates)
		}
	}

	sess, err := debug.NewSession(golden, lay, *seed)
	if err != nil {
		die(err)
	}
	sess.Obs = trace
	if plan != nil {
		sess.Overlay = plan.NewSelector(lay)
		sess.Causal = true
	}
	if *simLanes > 0 {
		sess.SimWidth = *simLanes / 64
	}
	if *repairSrch {
		// The repair pipeline always consults the dictionary first, like
		// the daemon's repair campaign kind.
		*useDict = true
	}
	if *useDict {
		prog, err := sim.Compile(golden)
		if err != nil {
			die(err)
		}
		dict, err := debug.BuildFaultDict(prog, *words, *cycles, *seed)
		if err != nil {
			die(err)
		}
		sess.Dict = dict
		sess.SetGoldenMachine(prog.Fork())
		fmt.Printf("fault dictionary: %d/%d faults detectable, %d signatures\n",
			dict.Detected, dict.Faults, dict.Signatures())
	}
	fmt.Println("== debugging loop ==")
	det, err := sess.Detect(*words, *cycles)
	if err != nil {
		die(err)
	}
	if !det.Failed {
		fmt.Println("detection: design passes — the injected error was not excited; try -fault-seed")
		flushTrace()
		return
	}
	fmt.Printf("detect:   FAILED outputs %v (replayed %d cycles × 64 patterns over %d inputs)\n",
		det.FailingOutputs, len(det.Stimulus), len(det.PIs))

	diag, err := sess.LocalizeDict(det, 4, 4)
	if err != nil {
		die(err)
	}
	if diag.Dict {
		fmt.Printf("localize: fault dictionary hit — suspects %v in tiles %v, zero probes\n",
			diag.Suspects, diag.Tiles)
	} else {
		fmt.Printf("localize: %d rounds, %d observation stages inserted, suspects %v in tiles %v\n",
			diag.Rounds, diag.Probes, diag.Suspects, diag.Tiles)
	}
	fmt.Printf("          tile-local effort: %v\n", diag.Effort)
	if plan != nil {
		fmt.Printf("overlay:  %d zero-CAD tap switch(es), %d CAD fallback round(s)\n",
			sess.OverlaySwitches, sess.OverlayFallbacks)
	}
	reportTiming("localization")

	var cor *debug.Correction
	if *repairSrch {
		var fellBack bool
		cor, fellBack, err = sess.CorrectAuto(diag, det, nil)
		if fellBack {
			fmt.Println("repair:   candidate search inconclusive — golden-copy fallback")
		}
	} else {
		cor, err = sess.CorrectFromGolden(diag, det)
	}
	if err != nil {
		die(err)
	}
	if cor.Repaired {
		fmt.Printf("repair:   %s repaired %v — %d candidate(s), %d survivor(s), %d lane batch(es), eco-verified=%v\n",
			cor.RepairKind, cor.Fixed, cor.Candidates, cor.Survivors, cor.Batches, cor.ECOVerified)
	}
	fmt.Printf("correct:  fixed %v, affected tiles %v, verified=%v\n",
		cor.Fixed, cor.Report.AffectedTiles, cor.Verified)
	fmt.Printf("          tile-local effort: %v\n", cor.Report.Effort)
	reportTiming("correction")
	if *showTiming {
		if err := lay.TimingEngine().SelfCheck(); err != nil {
			die(fmt.Errorf("delta STA diverged from full analysis: %w", err))
		}
		fmt.Println("timing:   delta STA verified bit-identical against a full analysis")
	}

	full, err := lay.FullRePlaceRoute(*seed + 99)
	if err != nil {
		die(err)
	}
	iters := diag.Rounds + 1 // observation inserts plus the correction
	fmt.Println("== effort summary ==")
	fmt.Printf("tiling (%d physical updates): %v\n", iters, sess.TileEffort)
	fmt.Printf("one full re-P&R:              %v\n", full)
	perIter := sess.TileEffort.Work() / float64(iters)
	fmt.Printf("speedup vs non-tiled per debugging iteration: %.1fx (work)\n", full.Work()/perIter)
	flushTrace()
}

// writeTraceOut appends one StageTrace as an NDJSON line and prints a
// one-line summary of what was written.
func writeTraceOut(path string, st *obs.StageTrace) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	defer f.Close()
	if err := obs.NewTraceLog(f).Write(st); err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	fmt.Printf("trace:    %d stage(s), wall %.1fms -> %s\n",
		len(st.Stages), float64(st.WallUs)/1000, path)
	return nil
}

// runRemote submits the campaign to a daemon, streams its progress and
// prints the result summary.
func runRemote(base, traceOut string, spec service.Spec) error {
	ctx := context.Background()
	cl := &service.Client{Base: base}
	if err := cl.Healthz(ctx); err != nil {
		return fmt.Errorf("daemon unreachable: %w", err)
	}
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("== campaign %s submitted to %s ==\n", st.ID, base)
	if err := cl.Events(ctx, st.ID, func(ev service.Event) {
		if ev.Round > 0 {
			fmt.Printf("[%s #%d] %s\n", ev.Stage, ev.Round, ev.Msg)
		} else {
			fmt.Printf("[%s] %s\n", ev.Stage, ev.Msg)
		}
	}); err != nil {
		return err
	}
	res, err := cl.Wait(ctx, st.ID, 0)
	if err != nil {
		return err
	}
	fmt.Println("== result ==")
	if res.FaultsTotal > 0 {
		fmt.Printf("fault universe: %d faults in %d batches\n", res.FaultsTotal, res.FaultBatches)
		fmt.Printf("detected %d (%.1f%% coverage), mean latency %.1f cycles, %.0f faults/sec\n",
			res.FaultsDetected, 100*res.FaultCoverage, res.MeanLatencyCycles, res.FaultsPerSec)
		fmt.Printf("artifact cache: %d hit(s), %d miss(es); wall %.1fms; digest %s\n",
			res.CacheHits, res.CacheMisses, res.WallMs, res.Digest)
		return fetchRemoteTrace(ctx, cl, st.ID, traceOut)
	}
	fmt.Printf("injected error: %s\n", res.Injected)
	fmt.Printf("detected=%v clean=%v iterations=%d rounds=%d probes=%d dict=%d fixed=%v\n",
		res.Detected, res.Clean, res.Iterations, res.Rounds, res.ProbesInserted, res.DictResolved, res.Fixed)
	if res.Repaired > 0 || res.RepairFallback {
		fmt.Printf("repair: %d candidate-search fix(es) (%s), %d candidate(s), %d survivor(s), %d lane batch(es), eco-verified=%v, fallback=%v\n",
			res.Repaired, res.RepairKind, res.Candidates, res.Survivors, res.CandidateBatches,
			res.ECOVerified, res.RepairFallback)
	}
	fmt.Printf("tile-local work %.0f vs full re-P&R %.0f — %.1fx per physical update\n",
		res.TileWork, res.FullWork, res.SpeedupPerIter)
	fmt.Printf("artifact cache: %d hit(s), %d miss(es); wall %.1fms; digest %s\n",
		res.CacheHits, res.CacheMisses, res.WallMs, res.Digest)
	return fetchRemoteTrace(ctx, cl, st.ID, traceOut)
}

// fetchRemoteTrace pulls a finished remote campaign's StageTrace and
// appends it to traceOut (no-op when -trace-out was not given).
func fetchRemoteTrace(ctx context.Context, cl *service.Client, id, traceOut string) error {
	if traceOut == "" {
		return nil
	}
	tr, err := cl.Trace(ctx, id)
	if err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	return writeTraceOut(traceOut, tr)
}

// Debugloop: the paper's full scenario on the DES benchmark — a design
// error hides in a key-specific DES datapath; emulation-based debugging
// detects it, localizes it by inserting observation logic (each insertion
// a tile-local physical change), corrects it, and verifies — all without
// ever re-placing-and-routing the untouched 90% of the design.
//
//	go run ./examples/debugloop
package main

import (
	"fmt"
	"log"
	"time"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/debug"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
	"fpgadbg/internal/testgen"
)

func main() {
	// The DES design is the paper's largest benchmark (1050 CLBs); use
	// s9234 (235 CLBs) to keep this example fast. Swap freely.
	info, err := bench.ByName("s9234")
	if err != nil {
		log.Fatal(err)
	}
	golden, err := synth.TechMap(info.Build())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden %s: %v\n", info.Name, golden.Stats())

	// Every detect/localize round below replays stimulus through the
	// compiled execution core; measure its raw throughput first.
	mach, err := sim.Compile(golden)
	if err != nil {
		log.Fatal(err)
	}
	pis := golden.SortedPINames()
	if err := mach.BindNames(pis); err != nil {
		log.Fatal(err)
	}
	stim := testgen.RandomBlocks(len(pis), 512, 1)
	start := time.Now()
	tr := mach.RunTrace(stim)
	el := time.Since(start)
	fmt.Printf("emulation: %d pattern-cycles in %v (%.0f Mpat-cyc/s)\n",
		tr.Cycles*64, el.Round(time.Microsecond), float64(tr.Cycles*64)/el.Seconds()/1e6)

	// Inject a design error the emulator has to find.
	impl := golden.Clone()
	var inj *faults.Injection
	for seed := int64(1); ; seed++ {
		inj, err = faults.Inject(impl, faults.WrongNet, seed)
		if err == nil {
			break
		}
	}
	fmt.Printf("hidden error: %v\n", inj)

	lay, err := core.BuildMapped(impl, core.Spec{Overhead: 0.2, TileFrac: 0.1, Seed: 1, PlaceEffort: 0.4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tiled layout: %v, %d tiles\n", lay.Dev, len(lay.Tiles))

	sess, err := debug.NewSession(golden, lay, 7)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sess.RunLoopCore(4, 8, 6, 4, 4)
	if err != nil {
		log.Fatal(err)
	}
	if !rep.Clean {
		fmt.Println("loop did not converge (error not excited by this stimulus)")
		return
	}
	fmt.Printf("\ndebugging converged in %d iteration(s)\n", rep.Iterations)
	for i, d := range rep.Diagnoses {
		fmt.Printf("  iteration %d: %d rounds, %d probes, suspects narrowed to %d cells in tiles %v\n",
			i+1, d.Rounds, d.Probes, len(d.Suspects), d.Tiles)
	}
	for i, c := range rep.Corrections {
		fmt.Printf("  correction %d: fixed %v (affected tiles %v) verified=%v\n",
			i+1, c.Fixed, c.Report.AffectedTiles, c.Verified)
	}
	fmt.Printf("\ntotal tile-local CAD effort: %v\n", rep.TileEffort)
	// The full place-and-route that built the layout is the non-tiled
	// comparison point, as in the campaign service.
	full := lay.BuildEffort
	fmt.Printf("one full place-and-route:    %v\n", full)
	fmt.Printf("=> per-iteration speedup %.1fx\n",
		full.Work()/(rep.TileEffort.Work()/float64(rep.Iterations+len(rep.Diagnoses))))
	if err := lay.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("layout invariants hold ✓")
}

// Ecoflow: an engineering change arrives after the design is already
// placed and routed. The flow diffs the revised netlist against the
// current one (package eco), traces the change through the hierarchy to
// the affected tiles, applies it through the tiling engine, and
// regenerates only the partial bitstream frames of those tiles (package
// bitstream) — Section 5 of the paper end to end. The change here only
// rewrites a LUT's function, so it moves no cell and no wire: the update
// is a rewrite of one tile's configuration frame with no place-and-route.
//
//	go run ./examples/ecoflow
package main

import (
	"fmt"
	"log"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/bitstream"
	"fpgadbg/internal/core"
	"fpgadbg/internal/eco"
	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/synth"
)

func main() {
	info, err := bench.ByName("c880")
	if err != nil {
		log.Fatal(err)
	}
	mapped, err := synth.TechMap(info.Build())
	if err != nil {
		log.Fatal(err)
	}
	lay, err := core.BuildMapped(mapped, core.Spec{Overhead: 0.2, TileFrac: 0.15, Seed: 1, PlaceEffort: 0.4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed %s: %v, %d tiles\n", info.Name, lay.Dev, len(lay.Tiles))

	base, err := bitstream.Full(lay)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline bitstream: %d frames, %d bytes, digest %s\n",
		len(base.Frames), base.Size(), base.Digest())

	// The "revised HDL": the designer changes one ALU gate's function.
	// We model it as the revised netlist; eco.Diff recovers the change.
	revised := lay.NL.Clone()
	var target netlist.CellID = netlist.NilCell
	for ci := range revised.Cells {
		c := &revised.Cells[ci]
		if !c.Dead && c.Kind == netlist.KindLUT && len(c.Fanin) == 2 {
			target = netlist.CellID(ci)
			break
		}
	}
	revised.Cells[target].Func = logic.XnorN(2)

	changes := eco.Diff(lay.NL, revised)
	fmt.Printf("\nengineering change: %d cell(s) differ\n", len(changes.Cells))
	tree := eco.BuildTree(lay.NL)
	fmt.Printf("traced to modules: %v\n", tree.TraceToModules(changes.Names()))

	// Apply the change in place and push it through the tiling engine.
	var modified []netlist.CellID
	for _, ch := range changes.Cells {
		id, ok := lay.NL.CellByName(ch.Name)
		if !ok {
			log.Fatalf("cell %q missing", ch.Name)
		}
		rid, _ := revised.CellByName(ch.Name)
		lay.NL.Cells[id].Func = revised.Cells[rid].Func.Clone()
		modified = append(modified, id)
	}
	rep, err := lay.ApplyDelta(core.Delta{Modified: modified})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("affected tiles: %v (of %d)\n", rep.AffectedTiles, len(lay.Tiles))
	fmt.Printf("tile-local effort: %v\n", rep.Effort)

	// ECO sign-off: the updated netlist must now behave exactly like the
	// revised one (replayed through the compiled simulator).
	mm, err := eco.Verify(revised, lay.NL, 8, 4, 5)
	if err != nil {
		log.Fatal(err)
	}
	if mm != nil {
		log.Fatalf("applied change diverges from revision: %v", mm)
	}
	fmt.Println("sign-off: applied change matches the revised netlist ✓")

	// Partial reconfiguration: regenerate only the frames the change
	// rewrote.
	partial, err := bitstream.Partial(lay, bitstream.Frames(rep))
	if err != nil {
		log.Fatal(err)
	}
	after, err := bitstream.Full(lay)
	if err != nil {
		log.Fatal(err)
	}
	stitched := bitstream.Stitch(base, partial)
	fmt.Printf("\npartial bitstream: %d bytes (%.1f%% of full)\n",
		partial.Size(), 100*float64(partial.Size())/float64(after.Size()))
	if stitched.Equal(after) {
		fmt.Println("stitching the partial frames onto the old image reproduces the new image ✓")
	} else {
		log.Fatal("partial reconfiguration mismatch")
	}
}

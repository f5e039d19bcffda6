package core_test

import (
	"reflect"
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/bitstream"
	"fpgadbg/internal/core"
	"fpgadbg/internal/device"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/route"
	"fpgadbg/internal/synth"
)

// physical is the placed-and-routed state a configuration-only delta
// must leave alone.
type physical struct {
	clbs   []device.XY
	pads   map[netlist.NetID]device.XY
	routes map[netlist.NetID]route.Net
}

func snapshot(l *core.Layout) physical {
	s := physical{
		clbs:   append([]device.XY(nil), l.CLBLoc...),
		pads:   make(map[netlist.NetID]device.XY, len(l.PadLoc)),
		routes: make(map[netlist.NetID]route.Net, len(l.Routes)),
	}
	for n, p := range l.PadLoc {
		s.pads[n] = p
	}
	for n, rn := range l.Routes {
		s.routes[n] = *rn
	}
	return s
}

// clbNets counts, per net, the pins the cells packed into one CLB have on
// it: every fanin occurrence and every driven output.
func clbNets(l *core.Layout, clb int) map[netlist.NetID]int {
	out := make(map[netlist.NetID]int)
	b := &l.Packed.CLBs[clb]
	for _, id := range append(append([]netlist.CellID(nil), b.LUTs...), b.FFs...) {
		c := &l.NL.Cells[id]
		for _, f := range c.Fanin {
			out[f]++
		}
		out[c.Out]++
	}
	return out
}

// firstCell returns the first live cell of the given kind passing ok, or
// NilCell.
func firstCell(nl *netlist.Netlist, kind netlist.CellKind, ok func(*netlist.Cell) bool) netlist.CellID {
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if !c.Dead && c.Kind == kind && ok(c) {
			return netlist.CellID(ci)
		}
	}
	return netlist.NilCell
}

func catalogLayout(t *testing.T, info bench.Info) *core.Layout {
	t.Helper()
	mapped, err := synth.TechMap(info.Build())
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.BuildMapped(mapped, core.Spec{Overhead: 0.20, TileFrac: 0.10, Seed: 3, PlaceEffort: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestConfigOnlyDeltasOnCatalog applies the corrections that rewrite a
// CLB's configuration and no wire — a new LUT table, a flip-flop init, a
// swap of two LUT input pins — on every catalog design. Each must leave
// placement, pads and routes identical and the layout valid, report
// exactly the cell's tile with no CAD effort, and be a partial
// reconfiguration of that tile: stitching its frame onto the old image
// gives the new full image. Rolling it back restores the state digest.
// Rewires that move a net onto or off the CLB must still re-place, and
// the frames their reports name must carry the whole change.
// MIPS and DES are left out: their initial place-and-route alone takes
// tens of seconds.
func TestConfigOnlyDeltasOnCatalog(t *testing.T) {
	for _, info := range bench.Catalog() {
		if info.Name == "MIPS R2000" || info.Name == "DES" || testing.Short() && info.Name == "s9234" {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			l := catalogLayout(t, info)
			nl := l.NL
			pristine := l.StateDigest()
			cases := 0

			configOnly := func(what string, id netlist.CellID, edit func() error) {
				t.Helper()
				if id == netlist.NilCell {
					return
				}
				cases++
				before, err := bitstream.Full(l)
				if err != nil {
					t.Fatal(err)
				}
				phys := snapshot(l)
				cp := l.Checkpoint()
				if err := edit(); err != nil {
					t.Fatal(err)
				}
				rep, err := l.ApplyDelta(core.Delta{Modified: []netlist.CellID{id}})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				tile := l.TileOf(l.CLBLoc[l.Packed.CellCLB[id]])
				if !reflect.DeepEqual(bitstream.Frames(rep), []int{tile}) || rep.Effort.Work() != 0 ||
					rep.Effort.CellsPlaced != 0 || rep.Effort.NetsRouted != 0 || rep.ReroutedNets != 0 {
					t.Fatalf("%s: report %+v, want tile [%d] and no CAD effort", what, rep, tile)
				}
				if !reflect.DeepEqual(snapshot(l), phys) {
					t.Fatalf("%s: placement, pads or routes changed", what)
				}
				if err := l.Check(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				after, err := bitstream.Full(l)
				if err != nil {
					t.Fatal(err)
				}
				if after.Equal(before) {
					t.Fatalf("%s: configuration image unchanged", what)
				}
				partial, err := bitstream.Partial(l, rep.AffectedTiles)
				if err != nil {
					t.Fatal(err)
				}
				if !bitstream.Stitch(before, partial).Equal(after) {
					t.Fatalf("%s: tile %d's frame does not carry the whole change", what, tile)
				}
				if err := l.Rollback(cp); err != nil {
					t.Fatal(err)
				}
				if got := l.StateDigest(); got != pristine {
					t.Fatalf("%s: rollback digest %s != pristine %s", what, got, pristine)
				}
			}
			rePlaced := func(what string, id netlist.CellID, edit func() error) {
				t.Helper()
				if id == netlist.NilCell {
					return
				}
				cases++
				before, err := bitstream.Full(l)
				if err != nil {
					t.Fatal(err)
				}
				cp := l.Checkpoint()
				if err := edit(); err != nil {
					t.Fatal(err)
				}
				rep, err := l.ApplyDelta(core.Delta{Modified: []netlist.CellID{id}})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if rep.Effort.PlaceMoves == 0 || rep.Effort.CellsPlaced == 0 {
					t.Fatalf("%s: report %+v, want a tile re-place", what, rep)
				}
				if err := l.Check(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				after, err := bitstream.Full(l)
				if err != nil {
					t.Fatal(err)
				}
				partial, err := bitstream.Partial(l, bitstream.Frames(rep))
				if err != nil {
					t.Fatal(err)
				}
				if !bitstream.Stitch(before, partial).Equal(after) {
					t.Fatalf("%s: frames %v do not carry the whole change", what, bitstream.Frames(rep))
				}
				if err := l.Rollback(cp); err != nil {
					t.Fatal(err)
				}
				if got := l.StateDigest(); got != pristine {
					t.Fatalf("%s: rollback digest %s != pristine %s", what, got, pristine)
				}
			}

			lut := firstCell(nl, netlist.KindLUT, func(c *netlist.Cell) bool { return len(c.Fanin) >= 2 })
			configOnly("set-func", lut, func() error {
				tt, err := nl.Cells[lut].Func.TT()
				if err != nil {
					return err
				}
				tt.SetBit(0, !tt.Bit(0))
				return nl.SetFunc(lut, tt.ToCover())
			})
			dff := firstCell(nl, netlist.KindDFF, func(*netlist.Cell) bool { return true })
			configOnly("set-init", dff, func() error { return nl.SetInit(dff, 1-nl.Cells[dff].Init) })
			swap := firstCell(nl, netlist.KindLUT, func(c *netlist.Cell) bool {
				return len(c.Fanin) >= 2 && c.Fanin[0] != c.Fanin[1]
			})
			configOnly("swap-fanin", swap, func() error { return nl.SwapFanin(swap, 0, 1) })

			// A primary input that reaches no pin of the LUT's CLB: moving a
			// LUT input onto it adds a wire.
			var far netlist.NetID = netlist.NilNet
			if lut != netlist.NilCell {
				at := clbNets(l, l.Packed.CellCLB[lut])
				for _, pi := range nl.PIs {
					if at[pi] == 0 {
						far = pi
						break
					}
				}
			}
			if far != netlist.NilNet {
				rePlaced("rewire onto a new net", lut, func() error { return nl.SetFanin(lut, 0, far) })
			}
			// A LUT input whose net has no other pin at the CLB: re-driving it
			// from the LUT's other input removes a wire, though the new net
			// is already there.
			pin := -1
			orphan := firstCell(nl, netlist.KindLUT, func(c *netlist.Cell) bool {
				if len(c.Fanin) < 2 {
					return false
				}
				id, _ := nl.CellByName(c.Name)
				at := clbNets(l, l.Packed.CellCLB[id])
				for p, f := range c.Fanin {
					if at[f] == 1 && c.Fanin[1-min(p, 1)] != f {
						pin = p
						return true
					}
				}
				return false
			})
			rePlaced("rewire off the CLB", orphan, func() error {
				other := nl.Cells[orphan].Fanin[1-min(pin, 1)]
				return nl.SetFanin(orphan, pin, other)
			})

			if cases < 4 {
				t.Fatalf("only %d delta case(s) found", cases)
			}
			if err := core.VerifyLayout(l); err != nil {
				t.Fatal(err)
			}
		})
	}
}

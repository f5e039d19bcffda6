package core

import (
	"fpgadbg/internal/device"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/pack"
	"fpgadbg/internal/route"
)

// Clone returns a deep copy of the layout: an independent netlist,
// packing, placement and routing that can be mutated (ApplyDelta,
// debugging campaigns) without disturbing the original. The campaign
// service caches one pristine layout per design fingerprint and hands
// each campaign a clone, so concurrent campaigns on the same design pay
// the initial place-and-route once.
func (l *Layout) Clone() *Layout {
	nl := l.NL.Clone()
	out := &Layout{
		Spec:        l.Spec,
		Dev:         l.Dev,
		NL:          nl,
		Grid:        l.Grid, // immutable after NewGrid: dimensions and capacity only
		CLBLoc:      append([]device.XY(nil), l.CLBLoc...),
		PadLoc:      make(map[netlist.NetID]device.XY, len(l.PadLoc)),
		Routes:      make(map[netlist.NetID]*route.Net, len(l.Routes)),
		Tiles:       append([]Tile(nil), l.Tiles...),
		rowCuts:     append([]int(nil), l.rowCuts...),
		colCuts:     append([]int(nil), l.colCuts...),
		BuildEffort: l.BuildEffort,
		fixedWiring: append([]route.EdgeID(nil), l.fixedWiring...),
		seq:         l.seq,
	}
	out.Packed = &pack.Packed{
		NL:      nl,
		CLBs:    make([]pack.CLB, len(l.Packed.CLBs)),
		CellCLB: make(map[netlist.CellID]int, len(l.Packed.CellCLB)),
	}
	for i, clb := range l.Packed.CLBs {
		out.Packed.CLBs[i] = pack.CLB{
			LUTs: append([]netlist.CellID(nil), clb.LUTs...),
			FFs:  append([]netlist.CellID(nil), clb.FFs...),
		}
	}
	for cell, clb := range l.Packed.CellCLB {
		out.Packed.CellCLB[cell] = clb
	}
	for k, v := range l.PadLoc {
		out.PadLoc[k] = v
	}
	for id, rn := range l.Routes {
		out.Routes[id] = &route.Net{
			ID:     rn.ID,
			Pins:   append([]device.XY(nil), rn.Pins...),
			Route:  append([]route.EdgeID(nil), rn.Route...),
			Locked: rn.Locked,
		}
	}
	return out
}

package core

import (
	"fpgadbg/internal/device"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/timing"
)

// TimingInput assembles the current physical annotations of the layout
// for STA: every packed cell's position, pad positions, and routed net
// lengths.
func (l *Layout) TimingInput() timing.Input {
	cellPos := make(map[netlist.CellID]device.XY)
	for ci := range l.NL.Cells {
		if l.NL.Cells[ci].Dead {
			continue
		}
		if clb, ok := l.Packed.CellCLB[netlist.CellID(ci)]; ok {
			cellPos[netlist.CellID(ci)] = l.CLBLoc[clb]
		}
	}
	netLen := make(map[netlist.NetID]int, len(l.Routes))
	for net, rn := range l.Routes {
		netLen[net] = rn.RouteLen()
	}
	return timing.Input{NL: l.NL, CellPos: cellPos, PadPos: l.PadLoc, NetLen: netLen}
}

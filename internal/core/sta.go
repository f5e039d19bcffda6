package core

import (
	"fpgadbg/internal/device"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/timing"
)

// Delta timing across the debug loop. EnableTiming attaches an
// incremental STA engine (timing.Engine) to the layout; from then on
// every successful ApplyDelta and every transaction Rollback
// resynchronizes arrival times through exactly the cells and nets the
// change touched, so the critical path is always current at cone cost
// instead of a full re-analysis per physical update. The engine's
// results are bit-identical to timing.Analyze over the same state
// (Engine.SelfCheck, plus the cross-catalog differential test).

// staState owns the engine plus the live physical annotation maps it
// reads (positions per cell, routed length per net).
type staState struct {
	eng     *timing.Engine
	cellPos map[netlist.CellID]device.XY
	netLen  map[netlist.NetID]int
}

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

// EnableTiming attaches the incremental timing engine (one full analysis
// now, cone-sized updates afterwards). Re-enabling replaces the engine.
func (l *Layout) EnableTiming(m timing.Model) error {
	sp := l.obs.Start(obs.StageSTA)
	defer sp.End()
	in := l.TimingInput()
	eng, err := timing.NewEngine(in, m)
	if err != nil {
		return err
	}
	sp.Add("sta-cells", int64(len(in.CellPos)))
	l.sta = &staState{eng: eng, cellPos: in.CellPos, netLen: in.NetLen}
	return nil
}

// CriticalDelay returns the current critical-path delay; ok is false
// when timing is not enabled.
func (l *Layout) CriticalDelay() (float64, bool) {
	if l.sta == nil {
		return 0, false
	}
	return l.sta.eng.Critical(), true
}

// TimingEngine exposes the attached engine (nil when disabled) for
// statistics and oracle checks.
func (l *Layout) TimingEngine() *timing.Engine {
	if l.sta == nil {
		return nil
	}
	return l.sta.eng
}

// refreshTimingCell reconciles one cell's annotation with the layout.
func (l *Layout) refreshTimingCell(id netlist.CellID) {
	if int(id) < 0 || int(id) >= len(l.NL.Cells) {
		delete(l.sta.cellPos, id)
		return
	}
	if l.NL.Cells[id].Dead {
		delete(l.sta.cellPos, id)
		return
	}
	if clb, ok := l.Packed.CellCLB[id]; ok && clb < len(l.CLBLoc) {
		l.sta.cellPos[id] = l.CLBLoc[clb]
	} else {
		delete(l.sta.cellPos, id)
	}
}

// refreshTimingNet reconciles one net's routed length with the layout.
func (l *Layout) refreshTimingNet(net netlist.NetID) {
	if rn, ok := l.Routes[net]; ok {
		l.sta.netLen[net] = rn.RouteLen()
	} else {
		delete(l.sta.netLen, net)
	}
}

// timingApply resynchronizes the engine after a successful ApplyDelta:
// the delta's cells, everything placed inside the affected region, and
// the re-routed nets seed the cone recomputation.
func (l *Layout) timingApply(d Delta, rep *ChangeReport) {
	if l.sta == nil {
		return
	}
	sp := l.obs.Start(obs.StageSTA)
	defer sp.End()
	var cells []netlist.CellID
	cells = append(cells, d.Added...)
	cells = append(cells, d.Modified...)
	cells = append(cells, d.Removed...)
	region := l.RegionOf(rep.AffectedTiles)
	for i := range l.Packed.CLBs {
		if l.Packed.Empty(i) {
			continue
		}
		if region.Contains(l.CLBLoc[i]) {
			cells = append(cells, l.Packed.CLBs[i].Cells()...)
		}
	}
	for _, id := range cells {
		l.refreshTimingCell(id)
	}
	// Routed lengths: the re-routed nets changed; entries for nets whose
	// route vanished (now below two pins) must fall back to estimates.
	nets := append([]netlist.NetID(nil), rep.ReroutedNetIDs...)
	for _, net := range nets {
		l.refreshTimingNet(net)
	}
	for net := range l.sta.netLen {
		if _, ok := l.Routes[net]; !ok {
			delete(l.sta.netLen, net)
			nets = append(nets, net)
		}
	}
	// The topology caches only need a rebuild when the delta edited the
	// netlist; a pure re-place/re-route keeps them.
	structural := len(d.Added)+len(d.Modified)+len(d.Removed) > 0
	sp.Add("sta-cells", int64(len(cells)))
	sp.Add("sta-nets", int64(len(nets)))
	// Ignore the resync error: the engine only fails on a cyclic
	// netlist, which Check would reject long before routing.
	_ = l.sta.eng.Update(cells, nets, structural)
}

// timingResync re-anchors the engine after a transaction rollback using
// the journal-derived touched sets.
func (l *Layout) timingResync(cells []netlist.CellID, nets []netlist.NetID) {
	if l.sta == nil {
		return
	}
	for _, id := range cells {
		l.refreshTimingCell(id)
	}
	for _, net := range nets {
		if int(net) >= 0 && int(net) < len(l.NL.Nets) {
			l.refreshTimingNet(net)
		} else {
			delete(l.sta.netLen, net)
		}
	}
	_ = l.sta.eng.Update(cells, nets, true)
}

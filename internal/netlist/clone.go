package netlist

import (
	"fmt"
	"sort"
)

// Clone returns a deep copy of the netlist, preserving IDs (including
// cell tombstones).
func (n *Netlist) Clone() *Netlist {
	out := &Netlist{
		Name:       n.Name,
		Cells:      make([]Cell, len(n.Cells)),
		Nets:       make([]Net, len(n.Nets)),
		PIs:        append([]NetID(nil), n.PIs...),
		POs:        append([]NetID(nil), n.POs...),
		netByName:  make(map[string]NetID, len(n.netByName)),
		cellByName: make(map[string]CellID, len(n.cellByName)),
	}
	for i, c := range n.Cells {
		cc := c
		cc.Fanin = append([]NetID(nil), c.Fanin...)
		cc.Func = c.Func.Clone()
		out.Cells[i] = cc
	}
	copy(out.Nets, n.Nets)
	for k, v := range n.netByName {
		out.netByName[k] = v
	}
	for k, v := range n.cellByName {
		out.cellByName[k] = v
	}
	return out
}

// Compact rebuilds the netlist without tombstoned cells. It returns the
// new netlist along with old→new cell and net ID maps (dead cells map to
// NilCell; every net survives).
func (n *Netlist) Compact() (*Netlist, []CellID, []NetID) {
	netMap := make([]NetID, len(n.Nets))
	cellMap := make([]CellID, len(n.Cells))
	out := New(n.Name)
	for i := range cellMap {
		cellMap[i] = NilCell
	}
	for ni := range n.Nets {
		netMap[ni] = out.AddNet(n.Nets[ni].Name)
	}
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead {
			continue
		}
		fanin := make([]NetID, len(c.Fanin))
		for i, f := range c.Fanin {
			fanin[i] = netMap[f]
		}
		var id CellID
		var err error
		switch c.Kind {
		case KindLUT:
			id, err = out.AddLUT(c.Name, c.Func, fanin, netMap[c.Out])
		case KindDFF:
			id, err = out.AddDFF(c.Name, fanin[0], netMap[c.Out], c.Init)
		}
		if err != nil {
			panic(fmt.Sprintf("netlist: Compact rebuilt an invalid cell: %v", err))
		}
		cellMap[ci] = id
	}
	for _, pi := range n.PIs {
		// AddNet already created it undriven; just register.
		out.PIs = append(out.PIs, netMap[pi])
	}
	for _, po := range n.POs {
		out.POs = append(out.POs, netMap[po])
	}
	return out, cellMap, netMap
}

// SweepDead removes cells whose outputs feed nothing (transitively),
// preserving POs and DFFs that feed anything live. It returns the number of
// cells removed.
func (n *Netlist) SweepDead() int {
	removed := 0
	for {
		fan := n.Fanouts()
		isPO := make(map[NetID]bool, len(n.POs))
		for _, po := range n.POs {
			isPO[po] = true
		}
		any := false
		for ci := range n.Cells {
			c := &n.Cells[ci]
			if c.Dead {
				continue
			}
			if len(fan[c.Out]) == 0 && !isPO[c.Out] {
				if err := n.RemoveCell(CellID(ci)); err == nil {
					removed++
					any = true
				}
			}
		}
		if !any {
			return removed
		}
	}
}

// Stats summarizes a netlist.
type Stats struct {
	LUTs, DFFs, Nets, PIs, POs int
	MaxFanin                   int
	Depth                      int
}

// Stats computes summary statistics; Depth is 0 when the network has a
// combinational cycle.
func (n *Netlist) Stats() Stats {
	var s Stats
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead {
			continue
		}
		switch c.Kind {
		case KindLUT:
			s.LUTs++
		case KindDFF:
			s.DFFs++
		}
		if len(c.Fanin) > s.MaxFanin {
			s.MaxFanin = len(c.Fanin)
		}
	}
	s.Nets = len(n.Nets)
	s.PIs = len(n.PIs)
	s.POs = len(n.POs)
	if _, d, err := n.Levels(); err == nil {
		s.Depth = d
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("luts=%d dffs=%d nets=%d pis=%d pos=%d maxfanin=%d depth=%d",
		s.LUTs, s.DFFs, s.Nets, s.PIs, s.POs, s.MaxFanin, s.Depth)
}

// SortedPINames returns PI names in deterministic order; used by the
// simulator and equivalence checks to match designs by name.
func (n *Netlist) SortedPINames() []string {
	names := make([]string, len(n.PIs))
	for i, pi := range n.PIs {
		names[i] = n.Nets[pi].Name
	}
	sort.Strings(names)
	return names
}

// SortedPONames returns PO names in deterministic order.
func (n *Netlist) SortedPONames() []string {
	names := make([]string, len(n.POs))
	for i, po := range n.POs {
		names[i] = n.Nets[po].Name
	}
	sort.Strings(names)
	return names
}

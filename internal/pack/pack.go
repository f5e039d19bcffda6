package pack

import (
	"fmt"

	"fpgadbg/internal/netlist"
)

// LUTsPerCLB and FFsPerCLB define the CLB capacity.
const (
	LUTsPerCLB = 2
	FFsPerCLB  = 2
)

// CLB is one packed block.
type CLB struct {
	LUTs []netlist.CellID
	FFs  []netlist.CellID
}

// Cells returns all cells in the block.
func (b *CLB) Cells() []netlist.CellID {
	out := make([]netlist.CellID, 0, len(b.LUTs)+len(b.FFs))
	out = append(out, b.LUTs...)
	out = append(out, b.FFs...)
	return out
}

// Packed is the result of packing one netlist.
type Packed struct {
	NL   *netlist.Netlist
	CLBs []CLB
	// CellCLB maps every live cell to its CLB index.
	CellCLB map[netlist.CellID]int

	// journal is the undo log recorded while journaling is on; see
	// journal.go.
	journal    []packOp
	journaling bool
}

// NumCLBs returns the block count — the unit of every figure in the paper.
func (p *Packed) NumCLBs() int { return len(p.CLBs) }

// Pack groups the netlist's cells into CLBs. Every LUT must already be
// mapped to at most 4 inputs.
func Pack(nl *netlist.Netlist) (*Packed, error) {
	var luts, ffs []netlist.CellID
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Dead {
			continue
		}
		switch c.Kind {
		case netlist.KindLUT:
			if len(c.Fanin) > 4 {
				return nil, fmt.Errorf("pack: LUT %q has %d inputs; run synth.TechMap first", c.Name, len(c.Fanin))
			}
			luts = append(luts, netlist.CellID(ci))
		case netlist.KindDFF:
			ffs = append(ffs, netlist.CellID(ci))
		}
	}

	p := &Packed{NL: nl, CellCLB: make(map[netlist.CellID]int)}

	// Pair LUTs by shared-fanin affinity.
	faninSet := make(map[netlist.CellID]map[netlist.NetID]bool, len(luts))
	netLUTs := make(map[netlist.NetID][]netlist.CellID)
	for _, id := range luts {
		s := make(map[netlist.NetID]bool, 4)
		for _, f := range nl.Cells[id].Fanin {
			s[f] = true
			netLUTs[f] = append(netLUTs[f], id)
		}
		faninSet[id] = s
	}
	assigned := make(map[netlist.CellID]bool, len(luts))
	newCLB := func() int {
		p.CLBs = append(p.CLBs, CLB{})
		return len(p.CLBs) - 1
	}
	place := func(clb int, id netlist.CellID, isLUT bool) {
		b := &p.CLBs[clb]
		if isLUT {
			b.LUTs = append(b.LUTs, id)
		} else {
			b.FFs = append(b.FFs, id)
		}
		p.CellCLB[id] = clb
		assigned[id] = true
	}
	for _, u := range luts {
		if assigned[u] {
			continue
		}
		clb := newCLB()
		place(clb, u, true)
		// Best unassigned partner sharing the most fanins.
		best := netlist.NilCell
		bestScore := -1
		seen := make(map[netlist.CellID]bool)
		for f := range faninSet[u] {
			for _, v := range netLUTs[f] {
				if v == u || assigned[v] || seen[v] {
					continue
				}
				seen[v] = true
				score := 0
				for g := range faninSet[v] {
					if faninSet[u][g] {
						score++
					}
				}
				if score > bestScore || (score == bestScore && (best == netlist.NilCell || v < best)) {
					best, bestScore = v, score
				}
			}
		}
		if best == netlist.NilCell {
			// No sharing partner: take the next unassigned LUT so blocks
			// stay full (area, not wirelength, dominates tile capacity).
			for _, v := range luts {
				if v != u && !assigned[v] {
					best = v
					break
				}
			}
		}
		if best != netlist.NilCell {
			place(clb, best, true)
		}
	}

	// Flip-flops: co-locate with the LUT driving D when that CLB has a free
	// FF slot; otherwise first CLB with space; otherwise a new CLB.
	for _, id := range ffs {
		c := &nl.Cells[id]
		drv := nl.Nets[c.Fanin[0]].Driver
		placed := false
		if drv != netlist.NilCell {
			if clb, ok := p.CellCLB[drv]; ok && len(p.CLBs[clb].FFs) < FFsPerCLB {
				place(clb, id, false)
				placed = true
			}
		}
		if !placed {
			for clb := range p.CLBs {
				if len(p.CLBs[clb].FFs) < FFsPerCLB {
					place(clb, id, false)
					placed = true
					break
				}
			}
		}
		if !placed {
			place(newCLB(), id, false)
		}
	}

	if err := p.Check(); err != nil {
		return nil, err
	}
	return p, nil
}

// Check validates the packing invariants.
func (p *Packed) Check() error {
	seen := make(map[netlist.CellID]int)
	for bi := range p.CLBs {
		b := &p.CLBs[bi]
		if len(b.LUTs) > LUTsPerCLB {
			return fmt.Errorf("pack: CLB %d holds %d LUTs", bi, len(b.LUTs))
		}
		if len(b.FFs) > FFsPerCLB {
			return fmt.Errorf("pack: CLB %d holds %d FFs", bi, len(b.FFs))
		}
		for _, id := range b.Cells() {
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("pack: cell %q in CLBs %d and %d", p.NL.CellName(id), prev, bi)
			}
			seen[id] = bi
			if got, ok := p.CellCLB[id]; !ok || got != bi {
				return fmt.Errorf("pack: CellCLB inconsistent for %q", p.NL.CellName(id))
			}
		}
	}
	for ci := range p.NL.Cells {
		c := &p.NL.Cells[ci]
		if c.Dead {
			continue
		}
		if _, ok := seen[netlist.CellID(ci)]; !ok {
			return fmt.Errorf("pack: cell %q not packed", c.Name)
		}
	}
	return nil
}

// Stats summarizes a packing.
type Stats struct {
	CLBs, LUTs, FFs int
	// FFWithDriver counts flip-flops co-located with their D driver.
	FFWithDriver int
	// AvgLUTFill is the mean LUT occupancy per CLB in [0,1].
	AvgLUTFill float64
}

// Stats computes packing statistics.
func (p *Packed) Stats() Stats {
	var s Stats
	s.CLBs = len(p.CLBs)
	for bi := range p.CLBs {
		b := &p.CLBs[bi]
		s.LUTs += len(b.LUTs)
		s.FFs += len(b.FFs)
		for _, ff := range b.FFs {
			drv := p.NL.Nets[p.NL.Cells[ff].Fanin[0]].Driver
			if drv != netlist.NilCell && p.CellCLB[drv] == bi {
				s.FFWithDriver++
			}
		}
	}
	if s.CLBs > 0 {
		s.AvgLUTFill = float64(s.LUTs) / float64(s.CLBs*LUTsPerCLB)
	}
	return s
}

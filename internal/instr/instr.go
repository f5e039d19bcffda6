package instr

import (
	"fmt"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
)

// MISR describes one inserted observation register.
type MISR struct {
	Name string
	// Observed lists the nets captured by each stage.
	Observed []netlist.NetID
	// State lists the DFF output nets (the signature, LSB first).
	State []netlist.NetID
	// Cells lists every inserted cell (for core.Delta.Added).
	Cells []netlist.CellID
}

// InsertMISR adds a w-stage MISR observing the given nets. Stage i
// computes s[i]' = obs[i] XOR s[i-1] (XOR s[w-1] on the feedback taps),
// the standard external-feedback signature register. The signature state
// nets are returned so the debugger can probe them; they are not exported
// as primary outputs (emulators read signatures back through configuration
// readback).
func InsertMISR(nl *netlist.Netlist, name string, observed []netlist.NetID) (*MISR, error) {
	if len(observed) == 0 {
		return nil, fmt.Errorf("instr: MISR needs at least one observed net")
	}
	for _, net := range observed {
		if int(net) < 0 || int(net) >= len(nl.Nets) {
			return nil, fmt.Errorf("instr: cannot observe invalid net %d", net)
		}
	}
	m := &MISR{Name: name}
	w := len(observed)
	// Create state nets first so stages can reference them.
	state := make([]netlist.NetID, w)
	for i := range state {
		state[i] = nl.AddNet(fmt.Sprintf("%s_s%d", name, i))
	}
	feedbackTap := func(i int) bool {
		// Sparse taps (primitive-polynomial-like): stages 0 and w/2.
		return i == 0 || (w > 2 && i == w/2)
	}
	for i := 0; i < w; i++ {
		var fanin []netlist.NetID
		fanin = append(fanin, observed[i])
		if i > 0 {
			fanin = append(fanin, state[i-1])
		}
		if feedbackTap(i) && w > 1 {
			fanin = append(fanin, state[w-1])
		}
		d := nl.AddNet(fmt.Sprintf("%s_d%d", name, i))
		lut, err := nl.AddLUT(fmt.Sprintf("%s_x%d", name, i), logic.XorN(len(fanin)), fanin, d)
		if err != nil {
			return nil, fmt.Errorf("instr: %w", err)
		}
		ff, err := nl.AddDFF(fmt.Sprintf("%s_ff%d", name, i), d, state[i], 0)
		if err != nil {
			return nil, fmt.Errorf("instr: %w", err)
		}
		m.Cells = append(m.Cells, lut, ff)
	}
	m.Observed = append(m.Observed, observed...)
	m.State = state
	return m, nil
}

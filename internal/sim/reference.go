package sim

import (
	"fmt"

	"fpgadbg/internal/netlist"
)

// ReferenceMachine is the pre-compilation simulator: a map-driven
// interpreter that walks the levelized cell list and evaluates every LUT
// through its sum-of-products cover, allocating a fanin gather and an
// output map per cycle. It is retained verbatim as (a) the differential
// oracle the compiled execution core is regression-tested against, and
// (b) the baseline the BenchmarkSimTrace/BenchmarkSimStep pair measures
// the compiled core's speedup over. New code should use Machine.
type ReferenceMachine struct {
	nl    *netlist.Netlist
	order []netlist.CellID // LUTs in topo order
	dffs  []netlist.CellID
	val   []uint64 // per net, 64 patterns wide
	state []uint64 // per entry of dffs: current Q value
	// scratch fanin buffer reused across evaluations
	buf []uint64
}

// CompileReference levelizes the netlist and returns a ready-to-run
// interpreter in the reset state.
// It is the differential oracle for the compiled program
// (TestRunTraceMatchesStepOnCatalog).
func CompileReference(nl *netlist.Netlist) (*ReferenceMachine, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m := &ReferenceMachine{
		nl:  nl,
		val: make([]uint64, len(nl.Nets)),
	}
	maxFanin := 0
	for _, id := range order {
		c := &nl.Cells[id]
		switch c.Kind {
		case netlist.KindLUT:
			m.order = append(m.order, id)
			if len(c.Fanin) > maxFanin {
				maxFanin = len(c.Fanin)
			}
		case netlist.KindDFF:
			m.dffs = append(m.dffs, id)
		}
	}
	m.state = make([]uint64, len(m.dffs))
	m.buf = make([]uint64, maxFanin)
	m.Reset()
	return m, nil
}

// Reset restores every DFF to its power-on value and clears all nets.
func (m *ReferenceMachine) Reset() {
	for i := range m.val {
		m.val[i] = 0
	}
	for i, id := range m.dffs {
		if m.nl.Cells[id].Init == 1 {
			m.state[i] = ^uint64(0)
		} else {
			m.state[i] = 0
		}
	}
}

// Eval propagates the current primary inputs and flip-flop state through
// the combinational logic, cover by cover.
func (m *ReferenceMachine) Eval() {
	for i, id := range m.dffs {
		m.val[m.nl.Cells[id].Out] = m.state[i]
	}
	for _, id := range m.order {
		c := &m.nl.Cells[id]
		buf := m.buf[:len(c.Fanin)]
		for j, f := range c.Fanin {
			buf[j] = m.val[f]
		}
		m.val[c.Out] = c.Func.EvalWords(buf)
	}
}

// Clock latches every DFF's D input into its state.
func (m *ReferenceMachine) Clock() {
	for i, id := range m.dffs {
		m.state[i] = m.val[m.nl.Cells[id].Fanin[0]]
	}
}

// Step is the map-based SetPIs → Eval → Clock cycle.
// Part of the CompileReference differential oracle.
func (m *ReferenceMachine) Step(in map[string]uint64) (map[string]uint64, error) {
	for name, w := range in {
		id, ok := m.nl.NetByName(name)
		if !ok {
			return nil, fmt.Errorf("sim: no net %q", name)
		}
		if !m.nl.IsPI(id) {
			return nil, fmt.Errorf("sim: net %q is not a primary input", name)
		}
		m.val[id] = w
	}
	m.Eval()
	out := make(map[string]uint64, len(m.nl.POs))
	for _, po := range m.nl.POs {
		out[m.nl.Nets[po].Name] = m.val[po]
	}
	m.Clock()
	return out, nil
}

// StateWords exposes the current flip-flop state (one word per DFF in
// compile order). Part of the CompileReference differential oracle.
func (m *ReferenceMachine) StateWords() []uint64 {
	return append([]uint64(nil), m.state...)
}

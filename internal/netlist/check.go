package netlist

import "fmt"

// Check validates the structural invariants of the netlist. It is intended
// to be cheap enough to call after every public mutation in tests:
//
//   - every live cell references live nets and its output's driver backref
//     points at it;
//   - LUT cover widths match fanin counts; DFFs have exactly one fanin;
//   - every live net's driver is a live cell that really drives it;
//   - PIs are live, undriven and unique; POs are live and unique;
//   - name indexes agree with the stored names.
func (n *Netlist) Check() error {
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead {
			continue
		}
		for pin, f := range c.Fanin {
			if !n.validNet(f) {
				return fmt.Errorf("netlist: cell %q pin %d references dead/invalid net %d", c.Name, pin, f)
			}
		}
		if !n.validNet(c.Out) {
			return fmt.Errorf("netlist: cell %q output net %d dead/invalid", c.Name, c.Out)
		}
		if n.Nets[c.Out].Driver != CellID(ci) {
			return fmt.Errorf("netlist: cell %q drives net %q but driver backref is %d", c.Name, n.Nets[c.Out].Name, n.Nets[c.Out].Driver)
		}
		switch c.Kind {
		case KindLUT:
			if c.Func.N != len(c.Fanin) {
				return fmt.Errorf("netlist: LUT %q cover width %d != fanin count %d", c.Name, c.Func.N, len(c.Fanin))
			}
		case KindDFF:
			if len(c.Fanin) != 1 {
				return fmt.Errorf("netlist: DFF %q has %d fanins", c.Name, len(c.Fanin))
			}
			if c.Init > 1 {
				return fmt.Errorf("netlist: DFF %q init %d", c.Name, c.Init)
			}
		default:
			return fmt.Errorf("netlist: cell %q has unknown kind %d", c.Name, c.Kind)
		}
		if got, ok := n.cellByName[c.Name]; !ok || got != CellID(ci) {
			return fmt.Errorf("netlist: cell name index inconsistent for %q", c.Name)
		}
	}
	for ni := range n.Nets {
		net := &n.Nets[ni]
		if net.Driver != NilCell {
			if !n.validCell(net.Driver) {
				return fmt.Errorf("netlist: net %q driven by dead/invalid cell %d", net.Name, net.Driver)
			}
			if n.Cells[net.Driver].Out != NetID(ni) {
				return fmt.Errorf("netlist: net %q driver %q does not drive it", net.Name, n.Cells[net.Driver].Name)
			}
		}
		if got, ok := n.netByName[net.Name]; !ok || got != NetID(ni) {
			return fmt.Errorf("netlist: net name index inconsistent for %q", net.Name)
		}
	}
	seenPI := make(map[NetID]bool, len(n.PIs))
	for _, pi := range n.PIs {
		if !n.validNet(pi) {
			return fmt.Errorf("netlist: PI %d dead/invalid", pi)
		}
		if n.Nets[pi].Driver != NilCell {
			return fmt.Errorf("netlist: PI %q has a driver", n.Nets[pi].Name)
		}
		if seenPI[pi] {
			return fmt.Errorf("netlist: PI %q listed twice", n.Nets[pi].Name)
		}
		seenPI[pi] = true
	}
	seenPO := make(map[NetID]bool, len(n.POs))
	for _, po := range n.POs {
		if !n.validNet(po) {
			return fmt.Errorf("netlist: PO %d dead/invalid", po)
		}
		if seenPO[po] {
			return fmt.Errorf("netlist: PO %q listed twice", n.Nets[po].Name)
		}
		seenPO[po] = true
	}
	return nil
}

// CheckDriven additionally requires every non-PI live net with sinks or PO
// status to have a driver (no floating inputs), and the combinational logic
// to be acyclic. Generators call this as their final self-check.
func (n *Netlist) CheckDriven() error {
	if err := n.Check(); err != nil {
		return err
	}
	isPI := make(map[NetID]bool, len(n.PIs))
	for _, pi := range n.PIs {
		isPI[pi] = true
	}
	fan := n.Fanouts()
	for ni := range n.Nets {
		net := &n.Nets[ni]
		if isPI[NetID(ni)] || net.Driver != NilCell {
			continue
		}
		if len(fan[ni]) > 0 || n.IsPO(NetID(ni)) {
			return fmt.Errorf("netlist: net %q is used but undriven", net.Name)
		}
	}
	if _, err := n.TopoOrder(); err != nil {
		return err
	}
	return nil
}

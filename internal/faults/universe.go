package faults

import (
	"fmt"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
)

// Fault is one enumerable fault site. Unlike Injection (a netlist
// mutation that happened), a Fault is a site — it can be armed on a
// simulator lane (Lane), applied to a netlist clone (Apply) or looked up
// in a fault dictionary. Beyond the classic stuck-at and LUT-bit-flip
// models it covers interconnect faults (bridges between two nets, route
// stuck-ats on one fanin pin) and carries an optional arming window for
// the transient/intermittent SEU model.
type Fault struct {
	Kind Kind
	// Net is the faulty net for StuckAt0/StuckAt1 and the victim net for
	// BridgeAND/BridgeOR.
	Net netlist.NetID
	// Net2 is the aggressor net for BridgeAND/BridgeOR.
	Net2 netlist.NetID
	// Cell is the faulty LUT for LUTBitFlip and RouteStuck0/1.
	Cell netlist.CellID
	// Bit is the flipped truth-table entry for LUTBitFlip.
	Bit uint32
	// Pin is the broken fanin pin for RouteStuck0/1.
	Pin int32
	// From/To is the arming window in trace cycles, [From, To): the fault
	// perturbs only cycles c with From ≤ c < To, though corrupted state
	// captured in flip-flops persists past To. To == 0 means no window —
	// a permanent fault (From is ignored). Zero values keep permanent
	// faults byte-identical to their pre-window encodings.
	From int32
	To   int32
}

// Windowed reports whether the fault carries a transient arming window.
func (f Fault) Windowed() bool { return f.To != 0 }

// Describe renders the fault with design names resolved.
func (f Fault) Describe(nl *netlist.Netlist) string {
	var s string
	switch f.Kind {
	case StuckAt0, StuckAt1:
		s = fmt.Sprintf("%s on net %s", f.Kind, nl.NetName(f.Net))
	case LUTBitFlip:
		s = fmt.Sprintf("%s minterm %d at %s", f.Kind, f.Bit, nl.CellName(f.Cell))
	case BridgeAND, BridgeOR:
		s = fmt.Sprintf("%s of net %s with %s", f.Kind, nl.NetName(f.Net), nl.NetName(f.Net2))
	case RouteStuck0, RouteStuck1:
		s = fmt.Sprintf("%s on pin %d of %s", f.Kind, f.Pin, nl.CellName(f.Cell))
	default:
		s = f.Kind.String()
	}
	if f.Windowed() {
		s += fmt.Sprintf(" in cycles [%d,%d)", f.From, f.To)
	}
	return s
}

// SuspectCell names the implementation cell a confirmed fault implicates:
// the flipped or pin-broken LUT, or the driver of the stuck/bridged net.
// Stuck-ats on driverless nets (primary inputs) implicate no cell and
// return false.
func (f Fault) SuspectCell(nl *netlist.Netlist) (string, bool) {
	switch f.Kind {
	case LUTBitFlip, RouteStuck0, RouteStuck1:
		return nl.CellName(f.Cell), true
	case StuckAt0, StuckAt1, BridgeAND, BridgeOR:
		d := nl.Nets[f.Net].Driver
		if d == netlist.NilCell {
			return "", false
		}
		return nl.CellName(d), true
	default:
		return "", false
	}
}

// Lane lowers the fault to its per-lane simulator perturbation,
// including the arming window.
func (f Fault) Lane() (sim.LaneFault, error) {
	lf := sim.LaneFault{From: f.From, To: f.To}
	switch f.Kind {
	case StuckAt0:
		lf.Kind, lf.Net = sim.LaneStuckAt0, f.Net
	case StuckAt1:
		lf.Kind, lf.Net = sim.LaneStuckAt1, f.Net
	case LUTBitFlip:
		lf.Kind, lf.Cell, lf.Minterm = sim.LaneLUTFlip, f.Cell, f.Bit
	case BridgeAND:
		lf.Kind, lf.Net, lf.Net2 = sim.LaneBridgeAND, f.Net, f.Net2
	case BridgeOR:
		lf.Kind, lf.Net, lf.Net2 = sim.LaneBridgeOR, f.Net, f.Net2
	case RouteStuck0:
		lf.Kind, lf.Cell, lf.Pin = sim.LanePinStuck0, f.Cell, f.Pin
	case RouteStuck1:
		lf.Kind, lf.Cell, lf.Pin = sim.LanePinStuck1, f.Cell, f.Pin
	default:
		return sim.LaneFault{}, fmt.Errorf("faults: %s has no lane form", f.Kind)
	}
	return lf, nil
}

// Apply mutates a netlist (clone!) with this fault's *permanent* form,
// for the serial one-mutant-at-a-time reference path: LUT-bit flips
// rewrite the cell function, stuck-ats on LUT-driven nets rewrite the
// driver to a constant, route stuck-ats cofactor the cell function at
// the broken pin, and bridges insert an explicit bridge cell (victim OP
// aggressor) and rewire every victim consumer — including primary-output
// slots — onto it. Stuck-ats on source nets (PIs, DFF outputs) have no
// netlist form — Apply reports applied=false and callers model them with
// sim.SetOverride instead. Arming windows are ignored: a windowed fault
// has no static netlist form, and the serial windowed-SEU oracle
// (SerialWindowScan) splices the permanent mutant in and out of the
// golden stream at the window boundaries instead.
func (f Fault) Apply(nl *netlist.Netlist) (applied bool, err error) {
	switch f.Kind {
	case LUTBitFlip:
		c := &nl.Cells[f.Cell]
		tt, err := c.Func.TT()
		if err != nil {
			return false, fmt.Errorf("faults: %s: %w", f.Describe(nl), err)
		}
		tt.SetBit(uint64(f.Bit), !tt.Bit(uint64(f.Bit)))
		c.Func = tt.ToCover()
		return true, nil
	case StuckAt0, StuckAt1:
		d := nl.Nets[f.Net].Driver
		if d == netlist.NilCell || nl.Cells[d].Kind != netlist.KindLUT {
			return false, nil
		}
		c := &nl.Cells[d]
		c.Func = logic.Const(c.Func.N, f.Kind == StuckAt1)
		return true, nil
	case RouteStuck0, RouteStuck1:
		c := &nl.Cells[f.Cell]
		if int(f.Pin) < 0 || int(f.Pin) >= len(c.Fanin) {
			return false, fmt.Errorf("faults: %s: cell has no pin %d", f.Describe(nl), f.Pin)
		}
		// The pin stays connected but the function no longer depends on
		// it — semantically identical to the route carrying a constant.
		c.Func = c.Func.Cofactor(int(f.Pin), f.Kind == RouteStuck1)
		return true, nil
	case BridgeAND, BridgeOR:
		d := nl.Nets[f.Net].Driver
		if d == netlist.NilCell || nl.Cells[d].Kind != netlist.KindLUT {
			// Source-net victims have no serial netlist form (the lane
			// engine models them, but InterconnectUniverse never emits
			// them).
			return false, nil
		}
		// Capture the victim's sinks before the bridge cell adds itself
		// to them.
		sinks := nl.Fanouts()[f.Net]
		fn := logic.AndN(2)
		if f.Kind == BridgeOR {
			fn = logic.OrN(2)
		}
		vName := nl.NetName(f.Net)
		b := nl.AddNet(vName + "__bridge")
		if _, err := nl.AddLUT(vName+"__bridge$c", fn, []netlist.NetID{f.Net, f.Net2}, b); err != nil {
			return false, fmt.Errorf("faults: %s: %w", f.Describe(nl), err)
		}
		for _, s := range sinks {
			if err := nl.SetFanin(s.Cell, s.Pin, b); err != nil {
				return false, fmt.Errorf("faults: %s: %w", f.Describe(nl), err)
			}
		}
		for i, po := range nl.POs {
			if po == f.Net {
				nl.POs[i] = b
			}
		}
		return true, nil
	default:
		return false, fmt.Errorf("faults: %s cannot be applied", f.Kind)
	}
}

// maxFlipInputs bounds the LUT sizes whose truth-table bits Universe
// enumerates; 4-LUT technology mapping keeps every cell within it, and
// the bound keeps the fault list linear in design size.
const maxFlipInputs = 4

// Universe enumerates the exhaustive single-fault list of a design in a
// deterministic order: stuck-at-0 and stuck-at-1 on every live net, then
// one bit flip per truth-table entry of every live LUT cell of at most
// maxFlipInputs inputs — the configuration-memory SEU model.
func Universe(nl *netlist.Netlist) []Fault {
	var out []Fault
	for ni := range nl.Nets {
		id := netlist.NetID(ni)
		out = append(out,
			Fault{Kind: StuckAt0, Net: id},
			Fault{Kind: StuckAt1, Net: id})
	}
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Dead || c.Kind != netlist.KindLUT || len(c.Fanin) > maxFlipInputs {
			continue
		}
		for bit := uint32(0); bit < 1<<uint(len(c.Fanin)); bit++ {
			out = append(out, Fault{Kind: LUTBitFlip, Cell: netlist.CellID(ci), Bit: bit})
		}
	}
	return out
}

// Batches splits a single-fault list into 64-mutant groups, one
// simulator lane each on a width-1 machine. The last batch may be short;
// order is preserved. Test fixture: the 64-lane default of BatchesN
// (faults TestBatches).
func Batches(fs []Fault) [][]Fault { return BatchesN(fs, 64) }

// BatchesN splits a fault list into groups of at most n mutants — one
// group per replay of a machine with n lanes (sim.Machine.Lanes). Batch
// accounting is per *mutant*, not per fault: each element here is a
// single-fault mutant, while PairBatchesN packs two-fault mutants at the
// same one-lane-per-mutant cost. The last batch may be short; order is
// preserved.
func BatchesN(fs []Fault, n int) [][]Fault { return batchesOf(fs, n) }

// batchesOf is the lane-accounting core shared by every mutant shape: a
// slice element is one mutant and consumes one lane, whether it carries
// one fault (BatchesN), a fault pair (PairBatchesN) or any future
// multi-fault group.
func batchesOf[T any](xs []T, n int) [][]T {
	if len(xs) == 0 {
		return nil
	}
	if n < 1 {
		n = 64
	}
	out := make([][]T, 0, (len(xs)+n-1)/n)
	for len(xs) > n {
		out = append(out, xs[:n])
		xs = xs[n:]
	}
	return append(out, xs)
}

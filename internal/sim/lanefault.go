package sim

// Fault-parallel execution: one mutant per bit lane. In normal operation
// the 64 bits of a net word are 64 independent test patterns; in
// fault-parallel mode they are 64 independent *mutants* evaluated under a
// broadcast stimulus (every primary input word is 0 or all-ones, so each
// lane sees the same scalar pattern). A lane mutation perturbs the value
// one compiled node produces — or one source net carries — in exactly the
// lanes its mask selects, and the perturbation is applied *during* the
// evaluation pass, so downstream logic in the same combinational wave and
// the flip-flops clocked afterwards all observe the faulty value, exactly
// as if the netlist itself had been mutated and recompiled.
//
// Four perturbation shapes cover the classic fault models:
//
//   - stuck-at: the net reads 0 (or 1) in the faulty lanes regardless of
//     its computed value — an SEU or defect on a wire;
//   - LUT-bit flip: the cell's output is inverted in the faulty lanes
//     whenever its fanin minterm equals the flipped truth-table entry —
//     an SEU in a configuration-memory bit;
//   - bridge: the victim net reads the wired-AND (or wired-OR) of its own
//     computed value and an aggressor net's value — a resistive short
//     between two routing wires. The aggressor keeps its own value (the
//     classic aggressor/victim model), and must be computed no later than
//     the victim: its driver's topological level must be strictly below
//     the victim driver's (source nets are always safe);
//   - pin stuck-at: one fanin pin of a LUT reads a constant while the net
//     feeding it stays healthy for every other consumer — a broken or
//     shorted route segment on the last hop into the cell. The output is
//     recomputed from the cell's pair table with that pin forced.
//
// Every lane fault can also carry an arming window [From, To): outside
// the window the perturbation is inert and the lane evaluates the healthy
// function — the transient/intermittent SEU model. Effects captured into
// flip-flops during the window persist after it closes, exactly as a real
// upset would, because only the combinational perturbation is gated.
//
// Arm up to Lanes() faults (one per lane) with SetLaneFault, replay a
// broadcast stimulus once, and every lane's primary-output stream is the
// stream of its private mutant: a Lanes()-way fault-simulation batch for
// the cost of one trace, with no netlist clone and no recompilation.
// Arming several faults on the same lane composes them into one
// multi-fault mutant — internal/faults packs fault pairs this way
// (internal/faults batches fault lists on top of this; see DESIGN.md §9
// and §15).

import (
	"fmt"
	"math"
	"sort"

	"fpgadbg/internal/netlist"
)

// LaneFaultKind enumerates the per-lane perturbations the execution core
// applies natively.
type LaneFaultKind uint8

const (
	// LaneStuckAt0 forces a net to 0 in the faulty lanes.
	LaneStuckAt0 LaneFaultKind = iota
	// LaneStuckAt1 forces a net to 1 in the faulty lanes.
	LaneStuckAt1
	// LaneLUTFlip inverts one truth-table entry of a LUT cell in the
	// faulty lanes: the output is complemented whenever the cell's inputs
	// select the flipped minterm.
	LaneLUTFlip
	// LaneBridgeAND wires the victim net (Net) to an aggressor net (Net2):
	// in the faulty lanes the victim reads victim AND aggressor. The
	// aggressor is unperturbed.
	LaneBridgeAND
	// LaneBridgeOR is the wired-OR bridge.
	LaneBridgeOR
	// LanePinStuck0 forces fanin pin Pin of LUT cell Cell to read 0 in the
	// faulty lanes; the driving net itself stays healthy.
	LanePinStuck0
	// LanePinStuck1 forces the pin to read 1.
	LanePinStuck1
)

func (k LaneFaultKind) String() string {
	switch k {
	case LaneStuckAt0:
		return "stuck-at-0"
	case LaneStuckAt1:
		return "stuck-at-1"
	case LaneLUTFlip:
		return "lut-flip"
	case LaneBridgeAND:
		return "bridge-and"
	case LaneBridgeOR:
		return "bridge-or"
	case LanePinStuck0:
		return "pin-stuck-0"
	case LanePinStuck1:
		return "pin-stuck-1"
	default:
		return fmt.Sprintf("LaneFaultKind(%d)", int(k))
	}
}

// LaneFault is one per-lane perturbation. Net addresses stuck-at faults
// and the bridge victim; Net2 the bridge aggressor; Cell and Minterm
// address LUT-bit flips; Cell and Pin address pin stuck-ats. From/To is
// the optional arming window in trace cycles, [From, To): the
// perturbation applies only in cycles c with From ≤ c < To. To == 0
// means no window — the fault is permanent (From is ignored).
type LaneFault struct {
	Kind    LaneFaultKind
	Net     netlist.NetID  // LaneStuckAt0/1, LaneBridge*: the faulty (victim) net
	Net2    netlist.NetID  // LaneBridge*: the aggressor net
	Cell    netlist.CellID // LaneLUTFlip, LanePinStuck*: the faulty LUT
	Minterm uint32         // LaneLUTFlip: the flipped truth-table entry
	Pin     int32          // LanePinStuck*: the forced fanin pin
	From    int32          // arming window start cycle (inclusive)
	To      int32          // arming window end cycle (exclusive); 0 = permanent
}

// laneMut is one compiled perturbation attached to a node (or, for
// sources, a net): apply to the lanes in mask, within lane word `word`
// of the net's lane vector, in trace cycles [from, to).
type laneMut struct {
	mask    uint64
	minterm uint32
	word    int32
	net2    int32 // LaneBridge*: aggressor net
	pin     int32 // LanePinStuck*: forced fanin pin
	from    int32 // arming window (normalized: permanent = [0, MaxInt32))
	to      int32
	kind    LaneFaultKind
}

// active reports whether the mutation is armed at the given trace cycle.
func (mut *laneMut) active(cycle int32) bool { return cycle >= mut.from && cycle < mut.to }

// preMut is a perturbation on a source net — a primary input, a
// flip-flop output or an undriven net — applied before the node pass,
// after inputs and state have been loaded.
type preMut struct {
	net  int32
	net2 int32 // LaneBridge*: aggressor net (must also be a source)
	mask uint64
	word int32
	from int32
	to   int32
	kind LaneFaultKind
}

// normalizeWindow validates a LaneFault's arming window and returns its
// internal [from, to) form (permanent = [0, MaxInt32)).
func normalizeWindow(f LaneFault) (from, to int32, err error) {
	if f.To == 0 {
		return 0, math.MaxInt32, nil
	}
	if f.To < 0 || f.From < 0 || f.To <= f.From {
		return 0, 0, fmt.Errorf("sim: lane-fault window [%d,%d) is empty or negative", f.From, f.To)
	}
	return f.From, f.To, nil
}

// nodeLevel returns the 1-based topological level of a compiled node.
func (m *Machine) nodeLevel(node int32) int {
	// levelOffN[l] is one past the last node of level l+1.
	return sort.Search(len(m.levelOffN), func(l int) bool { return m.levelOffN[l] > node }) + 1
}

// sourceNet reports whether a net is never written by the node pass: a
// primary input, a flip-flop output or an undriven net.
func (m *Machine) sourceNet(id netlist.NetID) bool {
	d := m.nl.Nets[id].Driver
	return d == netlist.NilCell || m.nl.Cells[d].Kind != netlist.KindLUT
}

// SetLaneFault arms one fault on one mutant lane, 0..Lanes()-1: widened
// machines carry 64 mutants per lane word, so a width-W compile batches
// 64·W mutants per replay. Faults accumulate until ClearLaneFaults;
// arming several faults on the same lane models a multi-fault mutant
// (when two perturbations on one lane interact — e.g. a bridge whose
// aggressor is itself stuck — they apply in arming order). Like
// overrides, lane faults are configuration, not state: they survive
// Reset (and hence RunTrace). Bridge faults require the aggressor to be
// computed no later than the victim: its driver's level must be strictly
// below the victim driver's, or the aggressor must be a source net; a
// bridge whose victim is a source net requires a source aggressor.
func (m *Machine) SetLaneFault(lane int, f LaneFault) error {
	if lane < 0 || lane >= 64*m.width {
		return fmt.Errorf("sim: lane %d out of [0,%d]", lane, 64*m.width-1)
	}
	from, to, err := normalizeWindow(f)
	if err != nil {
		return err
	}
	// Set before arming: a fault rejected below leaves the flag set,
	// which only costs quiescent-step skips until ClearLaneFaults.
	m.windowed = m.windowed || to != math.MaxInt32
	word := int32(lane / 64)
	mask := uint64(1) << uint(lane%64)
	switch f.Kind {
	case LaneStuckAt0, LaneStuckAt1:
		if int(f.Net) < 0 || int(f.Net) >= len(m.nl.Nets) {
			return fmt.Errorf("sim: lane fault on invalid net %d", f.Net)
		}
		d := m.nl.Nets[f.Net].Driver
		if d != netlist.NilCell && m.nl.Cells[d].Kind == netlist.KindLUT {
			node := m.nodeOfCell[d]
			if node < 0 {
				return fmt.Errorf("sim: lane fault on net %q driven by uncompiled cell", m.nl.NetName(f.Net))
			}
			m.addNodeMut(node, laneMut{mask: mask, word: word, from: from, to: to, kind: f.Kind})
		} else {
			// PI, DFF output or undriven: force before the node pass.
			m.preMuts = append(m.preMuts, preMut{net: int32(f.Net), mask: mask, word: word, from: from, to: to, kind: f.Kind})
		}
	case LaneBridgeAND, LaneBridgeOR:
		if int(f.Net) < 0 || int(f.Net) >= len(m.nl.Nets) {
			return fmt.Errorf("sim: bridge victim net %d invalid", f.Net)
		}
		if int(f.Net2) < 0 || int(f.Net2) >= len(m.nl.Nets) {
			return fmt.Errorf("sim: bridge aggressor net %d invalid", f.Net2)
		}
		if f.Net == f.Net2 {
			return fmt.Errorf("sim: bridge of net %q with itself", m.nl.NetName(f.Net))
		}
		if m.sourceNet(f.Net) {
			if !m.sourceNet(f.Net2) {
				return fmt.Errorf("sim: bridge victim %q is a source net but aggressor %q is LUT-driven",
					m.nl.NetName(f.Net), m.nl.NetName(f.Net2))
			}
			m.preMuts = append(m.preMuts, preMut{net: int32(f.Net), net2: int32(f.Net2),
				mask: mask, word: word, from: from, to: to, kind: f.Kind})
			return nil
		}
		node := m.nodeOfCell[m.nl.Nets[f.Net].Driver]
		if node < 0 {
			return fmt.Errorf("sim: bridge victim %q driven by uncompiled cell", m.nl.NetName(f.Net))
		}
		if !m.sourceNet(f.Net2) {
			anode := m.nodeOfCell[m.nl.Nets[f.Net2].Driver]
			if anode < 0 {
				return fmt.Errorf("sim: bridge aggressor %q driven by uncompiled cell", m.nl.NetName(f.Net2))
			}
			if m.nodeLevel(anode) >= m.nodeLevel(node) {
				return fmt.Errorf("sim: bridge aggressor %q (level %d) not strictly below victim %q (level %d)",
					m.nl.NetName(f.Net2), m.nodeLevel(anode), m.nl.NetName(f.Net), m.nodeLevel(node))
			}
		}
		m.addNodeMut(node, laneMut{mask: mask, word: word, net2: int32(f.Net2), from: from, to: to, kind: f.Kind})
	case LanePinStuck0, LanePinStuck1:
		if int(f.Cell) < 0 || int(f.Cell) >= len(m.nodeOfCell) {
			return fmt.Errorf("sim: pin-stuck on invalid cell %d", f.Cell)
		}
		node := m.nodeOfCell[f.Cell]
		if node < 0 {
			return fmt.Errorf("sim: pin-stuck on cell %q, which is not a compiled LUT", m.nl.CellName(f.Cell))
		}
		n := &m.nodes[node]
		if n.op == opCover {
			return fmt.Errorf("sim: pin-stuck on %d-input cell %q (max 4)", n.nin, m.nl.CellName(f.Cell))
		}
		if f.Pin < 0 || f.Pin >= n.nin {
			return fmt.Errorf("sim: pin %d out of range for %d-input cell %q", f.Pin, n.nin, m.nl.CellName(f.Cell))
		}
		m.addNodeMut(node, laneMut{mask: mask, word: word, pin: f.Pin, from: from, to: to, kind: f.Kind})
	case LaneLUTFlip:
		if int(f.Cell) < 0 || int(f.Cell) >= len(m.nodeOfCell) {
			return fmt.Errorf("sim: lane fault on invalid cell %d", f.Cell)
		}
		node := m.nodeOfCell[f.Cell]
		if node < 0 {
			return fmt.Errorf("sim: lut-flip on cell %q, which is not a compiled LUT", m.nl.CellName(f.Cell))
		}
		if n := m.nodes[node].nin; uint32(1)<<n <= f.Minterm {
			return fmt.Errorf("sim: lut-flip minterm %d out of range for %d-input cell %q",
				f.Minterm, n, m.nl.CellName(f.Cell))
		}
		m.addNodeMut(node, laneMut{mask: mask, minterm: f.Minterm, word: word, from: from, to: to, kind: LaneLUTFlip})
	default:
		return fmt.Errorf("sim: unknown lane-fault kind %d", f.Kind)
	}
	return nil
}

// addNodeMut attaches one perturbation to a compiled node.
func (m *Machine) addNodeMut(node int32, mut laneMut) {
	if m.mutOf == nil {
		m.mutOf = make([]int32, len(m.nodes))
		for i := range m.mutOf {
			m.mutOf[i] = -1
		}
	}
	if mi := m.mutOf[node]; mi >= 0 {
		m.mutLists[mi] = append(m.mutLists[mi], mut)
		return
	}
	m.mutOf[node] = int32(len(m.mutLists))
	m.mutNodes = append(m.mutNodes, node)
	// Recycle the inner slice truncated by ClearLaneFaults so arming the
	// next batch reuses its capacity instead of allocating per fault.
	if len(m.mutLists) < cap(m.mutLists) {
		m.mutLists = m.mutLists[:len(m.mutLists)+1]
		last := len(m.mutLists) - 1
		m.mutLists[last] = append(m.mutLists[last][:0], mut)
		return
	}
	m.mutLists = append(m.mutLists, []laneMut{mut})
}

// ClearLaneFaults removes every armed lane fault and lane patch,
// returning the machine to unperturbed evaluation. The mutation tables
// are retained for reuse, so arming the next 64-fault batch allocates
// (almost) nothing.
func (m *Machine) ClearLaneFaults() {
	for _, node := range m.mutNodes {
		m.mutOf[node] = -1
	}
	m.mutNodes = m.mutNodes[:0]
	m.mutLists = m.mutLists[:0]
	m.preMuts = m.preMuts[:0]
	m.windowed = false
	m.clearLanePatches()
}

// LaneFaultsArmed reports whether any lane fault or lane patch is
// configured.
func (m *Machine) LaneFaultsArmed() bool {
	return len(m.mutNodes) > 0 || len(m.preMuts) > 0 || len(m.patchNodes) > 0
}

// applyStuck applies a stuck-at mutation to a word.
func applyStuck(w uint64, mut laneMut) uint64 {
	if mut.kind == LaneStuckAt1 {
		return w | mut.mask
	}
	return w &^ mut.mask
}

// applyNodeMut perturbs one lane word of a node's freshly computed lane
// vector (the word the mutation addresses), honoring the mutation's
// arming window. For LUT flips the select word — all-ones in lanes whose
// fanin assignment equals the flipped minterm — is recomputed from the
// already-evaluated fanin words at the same word index, so the flip
// tracks the inputs cycle by cycle just like a mutated truth table
// would. Bridges read the aggressor's value word (final by the level
// ordering SetLaneFault enforces); pin stuck-ats re-evaluate the node's
// pair table with the pin forced.
func (m *Machine) applyNodeMut(w uint64, n *node, mut laneMut) uint64 {
	if !mut.active(m.cycle) {
		return w
	}
	W := m.width
	switch mut.kind {
	case LaneStuckAt0, LaneStuckAt1:
		return applyStuck(w, mut)
	case LaneBridgeAND:
		av := m.val[int(mut.net2)*W+int(mut.word)]
		return w&^mut.mask | (w&av)&mut.mask
	case LaneBridgeOR:
		av := m.val[int(mut.net2)*W+int(mut.word)]
		return w&^mut.mask | (w|av)&mut.mask
	case LanePinStuck0, LanePinStuck1:
		return w&^mut.mask | m.evalPinStuck(n, mut)&mut.mask
	default: // LaneLUTFlip
		sel := ^uint64(0)
		s := n.start
		for j := int32(0); j < n.nin; j++ {
			fv := m.val[int(m.fanin[s+j])*W+int(mut.word)]
			if mut.minterm&(1<<uint(j)) != 0 {
				sel &= fv
			} else {
				sel &= ^fv
			}
		}
		return w ^ sel&mut.mask
	}
}

// evalPinStuck recomputes a node's output word from its pair table with
// one fanin pin forced to a constant — the healthy fanin words for every
// other pin, the forced word for the stuck one.
func (m *Machine) evalPinStuck(n *node, mut laneMut) uint64 {
	W := m.width
	forced := uint64(0)
	if mut.kind == LanePinStuck1 {
		forced = ^uint64(0)
	}
	fv := func(j int32) uint64 {
		if j == mut.pin {
			return forced
		}
		return m.val[int(m.fanin[n.start+j])*W+int(mut.word)]
	}
	switch n.nin {
	case 1:
		return evalTab1(m.ttab[n.aux:n.aux+2:n.aux+2], fv(0))
	case 2:
		return evalTab2(m.ttab[n.aux:n.aux+4:n.aux+4], fv(0), fv(1))
	case 3:
		return evalTab3(m.ttab[n.aux:n.aux+8:n.aux+8], fv(0), fv(1), fv(2))
	default:
		return evalTab4(m.ttab[n.aux:n.aux+16:n.aux+16], fv(0), fv(1), fv(2), fv(3))
	}
}

// applyPreMut perturbs one source-net lane word before the node pass,
// honoring the arming window. Bridge pre-mutations read the aggressor's
// loaded source value.
func (m *Machine) applyPreMut(pm preMut) {
	if m.cycle < pm.from || m.cycle >= pm.to {
		return
	}
	W := m.width
	i := int(pm.net)*W + int(pm.word)
	switch pm.kind {
	case LaneBridgeAND:
		av := m.val[int(pm.net2)*W+int(pm.word)]
		m.val[i] = m.val[i]&^pm.mask | (m.val[i]&av)&pm.mask
	case LaneBridgeOR:
		av := m.val[int(pm.net2)*W+int(pm.word)]
		m.val[i] = m.val[i]&^pm.mask | (m.val[i]|av)&pm.mask
	default:
		m.val[i] = applyStuck(m.val[i], laneMut{mask: pm.mask, kind: pm.kind})
	}
}

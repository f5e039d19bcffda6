package sim

// Golden-run activity: what one broadcast stimulus ever presents to an
// unperturbed design. A single lane fault perturbs nothing until its
// perturbation first changes a value; until then the faulty lane equals
// the golden one, cycle by cycle, by induction. A fault whose
// perturbation the golden run never triggers — a flipped minterm never
// presented, a net stuck at the only value it ever carries — therefore
// yields a mutant identical to the golden machine on every cycle, and
// its scan outcome is known without simulating it. internal/faults
// drops such faults before packing lanes.
//
// The summary is gathered lane-packed. The golden replay records lane
// 0's flip-flop state entering every cycle as one bit; afterwards the
// inputs and state of 64·W consecutive cycles are transposed into the
// lanes of the same machine, and a single Eval yields every net's value
// on all of those cycles at once. The fold costs one Eval per 64·W
// cycles on top of the replay, instead of one per cycle.

import (
	"fmt"

	"fpgadbg/internal/netlist"
)

// Activity summarizes the golden run of one broadcast stimulus: per net,
// whether it ever carried 0 and ever carried 1, and per LUT of at most
// four inputs, which fanin minterms it was presented.
type Activity struct {
	nodes      []node
	nodeOfCell []int32
	levels     []uint8  // per net: bit 0 once it carried 0, bit 1 once it carried 1
	minterms   []uint16 // per node of ≤4 inputs: bit k once fanin minterm k was presented
}

// TraceActivity is RunTraceInto for a broadcast stimulus (every word 0
// or all-ones) that also summarizes the run's activity, read from lane
// 0. The machine must carry no lane faults or patches; overrides are
// honored in the summary as in the trace. The machine is left reset.
func (m *Machine) TraceActivity(tr *Trace, stim [][]uint64) (*Activity, error) {
	if m.LaneFaultsArmed() {
		return nil, fmt.Errorf("sim: activity needs a machine with no lane faults armed")
	}
	nw := (len(stim) + 63) / 64
	if len(m.dffQ) > 0 {
		m.stateBits = make([]uint64, len(m.dffQ)*nw)
	}
	m.RunTraceInto(tr, stim)
	bits := m.stateBits
	m.stateBits = nil

	a := &Activity{
		nodes:      m.nodes,
		nodeOfCell: m.nodeOfCell,
		levels:     make([]uint8, len(m.nl.Nets)),
		minterms:   make([]uint16, len(m.nodes)),
	}
	W := m.width
	for base := 0; base < len(stim); base += 64 * W {
		n := min(64*W, len(stim)-base)
		for i := range m.dffQ {
			st := m.state[i*W : i*W+W]
			clear(st)
			copy(st, bits[i*nw+base/64:i*nw+(base+n+63)/64])
		}
		for j, net := range m.bound {
			v := m.val[int(net)*W : int(net)*W+W]
			clear(v)
			for l, row := range stim[base : base+n] {
				if lane0Bit(row, j, len(m.bound), W) {
					v[l/64] |= 1 << uint(l%64)
				}
			}
		}
		m.Eval()
		a.fold(m, n)
	}
	m.Reset()
	return a, nil
}

// noteStateBits records lane 0 of every flip-flop entering trace cycle c
// into the TraceActivity state bitmap: DFF i's cycle c at bit c%64 of
// word i*nw + c/64.
func (m *Machine) noteStateBits(c int) {
	nw := len(m.stateBits) / len(m.dffQ)
	bit := uint64(1) << uint(c%64)
	for i := range m.dffQ {
		if m.state[i*m.width]&1 != 0 {
			m.stateBits[i*nw+c/64] |= bit
		}
	}
}

// lane0Bit is lane 0 of bound column j in a stimulus row of either
// layout (see ResumeTraceInto): narrow rows hold one word per column,
// wide rows W.
func lane0Bit(row []uint64, j, bound, W int) bool {
	if len(row) > bound {
		j *= W
	}
	return j < len(row) && row[j]&1 != 0
}

// fold merges the first n lanes of the evaluated value plane — n
// consecutive golden cycles — into the summary.
func (a *Activity) fold(m *Machine, n int) {
	W := m.width
	var valid [MaxWidth]uint64
	nw := (n + 63) / 64
	for w := 0; w < nw; w++ {
		valid[w] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		valid[nw-1] = 1<<uint(r) - 1
	}
	for net := range a.levels {
		if a.levels[net] == 3 {
			continue
		}
		var zero, one uint64
		for w, x := range m.val[net*W : net*W+nw] {
			zero |= ^x & valid[w]
			one |= x & valid[w]
		}
		if zero != 0 {
			a.levels[net] |= 1
		}
		if one != 0 {
			a.levels[net] |= 2
		}
	}
	for i := range m.nodes {
		nd := &m.nodes[i]
		if nd.nin > 4 || uint32(a.minterms[i]) == 1<<(1<<nd.nin)-1 {
			continue
		}
		for w := 0; w < nw; w++ {
			// Split the valid lanes by each fanin in turn: after fanin j,
			// sel[k] holds the lanes whose first j+1 fanins spell the low
			// bits of minterm k.
			var sel [16]uint64
			sel[0] = valid[w]
			k := 1
			for j := int32(0); j < nd.nin; j++ {
				f := m.val[int(m.fanin[nd.start+j])*W+w]
				for p := 0; p < k; p++ {
					sel[p+k] = sel[p] & f
					sel[p] &^= f
				}
				k <<= 1
			}
			for p := 0; p < k; p++ {
				if sel[p] != 0 {
					a.minterms[i] |= 1 << uint(p)
				}
			}
		}
	}
}

// carried reports whether the golden run ever drove net to v. Nets
// outside the design report true, so faults naming them stay excited and
// fail when armed.
func (a *Activity) carried(net netlist.NetID, v bool) bool {
	if int(net) < 0 || int(net) >= len(a.levels) {
		return true
	}
	bit := uint8(1)
	if v {
		bit = 2
	}
	return a.levels[net]&bit != 0
}

// lut returns the compiled node of a LUT with at most four inputs and
// the fanin minterms the golden run presented to it.
func (a *Activity) lut(cell netlist.CellID) (nd *node, seen uint16, ok bool) {
	if int(cell) < 0 || int(cell) >= len(a.nodeOfCell) {
		return nil, 0, false
	}
	i := a.nodeOfCell[cell]
	if i < 0 || a.nodes[i].nin > 4 {
		return nil, 0, false
	}
	return &a.nodes[i], a.minterms[i], true
}

// Excites reports whether the golden run ever triggers f's perturbation.
// When it does not, the faulty lane equals the golden one on every cycle
// — inside any arming window too — so f's outcome is exactly that of an
// unperturbed lane:
//
//   - a stuck-at-v excites only a net that ever carried the other value;
//   - a LUT-bit flip excites only when its minterm was presented;
//   - a pin stuck-at-v excites only when some presented minterm with
//     the pin at the other value changes the function once the pin is
//     forced — so never on a pin whose net is held at v;
//   - a wired-AND bridge excites only when the victim ever carried 1 and
//     the aggressor ever carried 0 (wired-OR: the victim 0, the
//     aggressor 1). The two are checked apart, not in the same cycle, so
//     the test is sound but not tight.
//
// Anything it cannot summarize — wide LUTs, out-of-range sites, unknown
// kinds — reports true.
func (a *Activity) Excites(f LaneFault) bool {
	switch f.Kind {
	case LaneStuckAt0:
		return a.carried(f.Net, true)
	case LaneStuckAt1:
		return a.carried(f.Net, false)
	case LaneBridgeAND:
		return a.carried(f.Net, true) && a.carried(f.Net2, false)
	case LaneBridgeOR:
		return a.carried(f.Net, false) && a.carried(f.Net2, true)
	case LaneLUTFlip:
		nd, seen, ok := a.lut(f.Cell)
		if !ok || f.Minterm >= 1<<uint(nd.nin) {
			return true
		}
		return seen>>f.Minterm&1 != 0
	case LanePinStuck0, LanePinStuck1:
		nd, seen, ok := a.lut(f.Cell)
		if !ok || f.Pin < 0 || f.Pin >= nd.nin {
			return true
		}
		pin := uint32(1) << uint(f.Pin)
		for k := uint32(0); k < 1<<uint(nd.nin); k++ {
			forced := k &^ pin
			if f.Kind == LanePinStuck1 {
				forced = k | pin
			}
			if seen>>k&1 != 0 && nd.tt>>k&1 != nd.tt>>forced&1 {
				return true
			}
		}
		return false
	default:
		return true
	}
}

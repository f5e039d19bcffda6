package sim

import (
	"fmt"
	"sort"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
)

// Kernel opcodes. LUTs with at most four inputs are compiled to their
// 16-bit truth table and evaluated by unrolled Shannon muxing; wider LUTs
// keep their sum-of-products cover.
const (
	opConst uint8 = iota // zero-input LUT; tt bit 0 is the constant
	opTT1                // 1-input truth-table kernel
	opTT2                // 2-input truth-table kernel
	opTT3                // 3-input truth-table kernel
	opTT4                // 4-input truth-table kernel
	opCover              // generic cover evaluation (k > 4)
)

// MaxWidth bounds the lane-vector width: up to MaxWidth 64-pattern words
// per net, i.e. 64*MaxWidth parallel lanes per replay.
const MaxWidth = 16

// node is one compiled LUT in level-major topological order.
type node struct {
	out   int32  // output net index
	start int32  // first fanin in the CSR array
	nin   int32  // fanin count
	aux   int32  // opTT*: start in ttab; opCover: index into covers
	op    uint8  // kernel opcode
	tt    uint16 // raw truth table (opConst: bit 0 is the constant)
}

// Machine is a compiled simulator instance for one netlist. Every net
// carries a lane vector of Width() 64-pattern words — 64·Width parallel
// lanes per evaluation — stored stride-Width in one flat value plane.
// A Machine is not safe for concurrent use; Fork one per worker.
type Machine struct {
	nl    *netlist.Netlist
	width int // words per net lane vector (W); lanes = 64*W

	// Compiled program.
	nodes  []node
	fanin  []int32       // CSR-packed fanin net indices for all nodes
	ttab   []uint64      // broadcast pair tables of all opTT* kernels
	covers []logic.Cover // functions of opCover nodes
	buf    []uint64      // scratch fanin gather for opCover kernels

	// levelOffN holds the level boundaries of the level-major node
	// schedule; windowed lane faults map a node to its level with it.
	levelOffN []int32

	// Flip-flop tables (compile order, stable across the Machine's life).
	dffD    []int32  // D input net per DFF
	dffQ    []int32  // Q output net per DFF
	dffInit []uint64 // power-on word per DFF (0 or all-ones, broadcast to all lane words)

	// Primary input/output tables.
	pis     []int32  // PI net indices, sorted by name
	piNames []string // names parallel to pis
	pos     []int32  // PO net indices in netlist declaration order
	poNames []string // names parallel to pos

	val   []uint64 // per net: width words (net i at val[i*width:(i+1)*width])
	state []uint64 // per DFF: width words of current Q value
	cycle int32    // trace cycle counter: 0 after Reset, +1 per Clock (arms windowed lane faults)

	// Trace configuration (see trace.go).
	bound        []int32 // net index per stimulus column
	probes       []int32 // net indices sampled into Trace.ProbeVals
	captureState bool

	// Override list: nets pinned to a fixed lane vector during evaluation
	// (width words per entry in ovVal).
	ovIdx  []int32 // per net: index into ovNets, or -1 (nil until first use)
	ovNets []int32
	ovVal  []uint64

	// Fault-parallel lane mutations (see lanefault.go). nodeOfCell is part
	// of the compiled program (shared by forks); the rest is per-instance
	// configuration like the override list.
	nodeOfCell []int32 // per cell: compiled node index, or -1
	mutOf      []int32 // per node: index into mutLists, or -1 (nil until first use)
	mutNodes   []int32 // nodes carrying mutations, for clearing
	mutLists   [][]laneMut
	preMuts    []preMut // stuck-ats on PIs, DFF outputs and undriven nets

	// Per-lane truth-table substitutions (see lanepatch.go), configured
	// like lane faults and cleared with them.
	patchOf    []int32 // per node: index into patchLists, or -1 (nil until first use)
	patchNodes []int32
	patchLists [][]lanePatch
	patchTabs  []uint64 // pair tables of all armed patches

	// windowed is set once any armed lane fault carries a finite arming
	// window, and cleared with the faults: such a fault makes evaluation
	// depend on the cycle counter, so trace replays never skip a step.
	windowed bool

	// Net-to-reader index (see cone.go), built by the first Cone call and
	// private to this instance: readers[readOff[n]:readOff[n+1]] lists the
	// nodes reading net n, and flip-flop d latching it as -1-d.
	readOff []int32
	readers []int32

	// stateBits, set only during TraceActivity's golden replay, collects
	// lane 0 of every flip-flop entering each cycle (see activity.go).
	stateBits []uint64
}

// Compile levelizes the netlist and lowers it into a ready-to-run machine
// in the reset state, with the classic single-word lane model (64 lanes).
// The netlist must be combinationally acyclic.
func Compile(nl *netlist.Netlist) (*Machine, error) {
	return CompileWidth(nl, 1)
}

// CompileWidth is Compile with a configurable lane-vector width: every
// net carries width 64-pattern words, so one replay evaluates 64·width
// parallel patterns (or mutants — see SetLaneFault). width 1 yields a
// machine bit-identical to Compile's; width must be in [1, MaxWidth].
func CompileWidth(nl *netlist.Netlist, width int) (*Machine, error) {
	if width < 1 || width > MaxWidth {
		return nil, fmt.Errorf("sim: lane width %d out of [1,%d]", width, MaxWidth)
	}
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m := &Machine{
		nl:         nl,
		width:      width,
		val:        make([]uint64, len(nl.Nets)*width),
		nodeOfCell: make([]int32, len(nl.Cells)),
	}
	for i := range m.nodeOfCell {
		m.nodeOfCell[i] = -1
	}

	// Levelize: level 0 is sources (PIs, DFF outputs, undriven nets);
	// a LUT's level is one past its deepest fanin. Nodes are emitted
	// level-major (stable within a level by topo order); any level-major
	// order is a topological order.
	netLevel := make([]int32, len(nl.Nets))
	var luts []netlist.CellID
	maxLevel := int32(0)
	// Per-cell lowering decision: opcode and 16-bit truth table, computed
	// once here so the schedule sort below can key on the opcode.
	type lowered struct {
		op uint8
		w4 uint16
	}
	low := make([]lowered, len(nl.Cells))
	for _, id := range order {
		c := &nl.Cells[id]
		if c.Kind != netlist.KindLUT {
			continue
		}
		lvl := int32(0)
		for _, f := range c.Fanin {
			if netLevel[f] >= lvl {
				lvl = netLevel[f] + 1
			}
		}
		if len(c.Fanin) == 0 {
			lvl = 1
		}
		netLevel[c.Out] = lvl
		if lvl > maxLevel {
			maxLevel = lvl
		}
		luts = append(luts, id)

		k := len(c.Fanin)
		switch {
		case k == 0:
			low[id].op = opConst
			if c.Func.Eval(0) {
				low[id].w4 = 1
			}
		case k <= 4:
			tt, err := c.Func.TT()
			if err != nil {
				return nil, fmt.Errorf("sim: cell %q: %w", c.Name, err)
			}
			w4, err := tt.Word4()
			if err != nil {
				return nil, fmt.Errorf("sim: cell %q: %w", c.Name, err)
			}
			low[id].op = opConst + uint8(k) // opTT1..opTT4
			low[id].w4 = w4
		default:
			low[id].op = opCover
		}
	}
	// Within a level nodes are mutually independent, so their order is
	// free; grouping them by opcode turns the evaluator's per-node opcode
	// switch into long runs of one branch target, which the predictor
	// learns instead of guessing per node.
	sort.SliceStable(luts, func(i, j int) bool {
		li, lj := netLevel[nl.Cells[luts[i]].Out], netLevel[nl.Cells[luts[j]].Out]
		if li != lj {
			return li < lj
		}
		return low[luts[i]].op < low[luts[j]].op
	})

	maxFanin := 0
	for _, id := range luts {
		c := &nl.Cells[id]
		m.nodeOfCell[id] = int32(len(m.nodes))
		n := node{
			out:   int32(c.Out),
			start: int32(len(m.fanin)),
			nin:   int32(len(c.Fanin)),
			aux:   -1,
			op:    low[id].op,
			tt:    low[id].w4,
		}
		for _, f := range c.Fanin {
			m.fanin = append(m.fanin, int32(f))
		}
		switch n.op {
		case opConst:
		case opCover:
			n.aux = int32(len(m.covers))
			m.covers = append(m.covers, c.Func)
			if len(c.Fanin) > maxFanin {
				maxFanin = len(c.Fanin)
			}
		default:
			n.aux = int32(len(m.ttab))
			m.ttab = append(m.ttab, expandTT(n.tt, len(c.Fanin))...)
		}
		m.nodes = append(m.nodes, n)
	}
	// levelOffN[i] is one past the last node of level i+1, so level l's
	// node range is [levelOffN[l-2], levelOffN[l-1]) with an implicit 0
	// at the front.
	idx := 0
	for l := int32(1); l <= maxLevel; l++ {
		for idx < len(luts) && netLevel[nl.Cells[luts[idx]].Out] == l {
			idx++
		}
		m.levelOffN = append(m.levelOffN, int32(idx))
	}

	for _, id := range order {
		c := &nl.Cells[id]
		if c.Kind != netlist.KindDFF {
			continue
		}
		m.dffD = append(m.dffD, int32(c.Fanin[0]))
		m.dffQ = append(m.dffQ, int32(c.Out))
		if c.Init == 1 {
			m.dffInit = append(m.dffInit, ^uint64(0))
		} else {
			m.dffInit = append(m.dffInit, 0)
		}
	}
	m.buf = make([]uint64, maxFanin)
	m.state = make([]uint64, len(m.dffQ)*width)
	for _, pi := range nl.PIs {
		m.pis = append(m.pis, int32(pi))
	}
	sort.Slice(m.pis, func(i, j int) bool {
		return nl.Nets[m.pis[i]].Name < nl.Nets[m.pis[j]].Name
	})
	m.piNames = make([]string, len(m.pis))
	for i, pi := range m.pis {
		m.piNames[i] = nl.Nets[pi].Name
	}
	for _, po := range nl.POs {
		m.pos = append(m.pos, int32(po))
		m.poNames = append(m.poNames, nl.Nets[po].Name)
	}
	// Default binding: every PI, in sorted-name order.
	m.bound = append([]int32(nil), m.pis...)
	m.Reset()
	return m, nil
}

// Netlist returns the compiled design.
func (m *Machine) Netlist() *netlist.Netlist { return m.nl }

// Width returns the lane-vector width: 64-pattern words per net.
func (m *Machine) Width() int { return m.width }

// Lanes returns the number of parallel lanes one evaluation carries
// (64·Width) — the batch size of fault- and patch-parallel campaigns.
func (m *Machine) Lanes() int { return 64 * m.width }

// Reset restores every DFF to its power-on value and clears all nets.
// Trace bindings, probes and overrides are configuration, not state, and
// survive a reset.
func (m *Machine) Reset() {
	m.cycle = 0
	for i := range m.val {
		m.val[i] = 0
	}
	W := m.width
	for i, init := range m.dffInit {
		for w := 0; w < W; w++ {
			m.state[i*W+w] = init
		}
	}
}

// Eval propagates the current primary inputs and flip-flop state through
// the combinational logic. It does not advance the clock. Nets on the
// override list read their pinned lane vector instead of their computed
// value.
func (m *Machine) Eval() {
	W := m.width
	if W == 1 {
		for i, q := range m.dffQ {
			m.val[q] = m.state[i]
		}
	} else {
		for i, q := range m.dffQ {
			copy(m.val[int(q)*W:int(q)*W+W], m.state[i*W:i*W+W])
		}
	}
	if len(m.ovNets) != 0 {
		// Pre-apply overrides so source nets (PIs, DFF outputs) read
		// forced; driven nets are re-forced as their node executes.
		for _, net := range m.ovNets {
			o := int(m.ovIdx[net]) * W
			copy(m.val[int(net)*W:int(net)*W+W], m.ovVal[o:o+W])
		}
	}
	if len(m.preMuts) != 0 {
		// Source-net perturbations: PIs, DFF outputs and undriven nets are
		// never written by the node pass, so forcing them up front is
		// final for this evaluation. Applied in arming order, gated on
		// each mutation's cycle window.
		for _, pm := range m.preMuts {
			m.applyPreMut(pm)
		}
	}
	if W > 1 || len(m.mutNodes) != 0 || len(m.patchNodes) != 0 || len(m.ovNets) != 0 {
		m.evalHookedRange()
	} else {
		m.evalPlainRange1()
	}
}

// clock is Clock reporting whether the edge changed any state word: the
// OR of old^new over every latched word, zero when the state held. The
// fold is branch-free so the latch loop costs the same whether or not the
// design ever settles.
func (m *Machine) clock() uint64 {
	m.cycle++
	W := m.width
	var diff uint64
	if W == 1 {
		st := m.state[:len(m.dffD)]
		for i, d := range m.dffD {
			v := m.val[d]
			diff |= st[i] ^ v
			st[i] = v
		}
		return diff
	}
	for i, d := range m.dffD {
		dst := m.state[i*W : i*W+W]
		for w, v := range m.val[int(d)*W : int(d)*W+W] {
			diff |= dst[w] ^ v
			dst[w] = v
		}
	}
	return diff
}

// SetOverride pins a net to a fixed 64-pattern word — broadcast across
// all lane words of a widened machine — for every subsequent Eval (and
// hence RunTrace cycle) until cleared: the software analogue of a control
// point holding a signal. The override is honored by the execution core
// itself: downstream logic evaluated in the same pass reads the forced
// value, and re-evaluation does not clobber it.
func (m *Machine) SetOverride(id netlist.NetID, w uint64) error {
	if int(id) < 0 || int(id) >= len(m.nl.Nets) {
		return fmt.Errorf("sim: override of invalid net %d", id)
	}
	W := m.width
	if m.ovIdx == nil {
		m.ovIdx = make([]int32, len(m.nl.Nets))
		for i := range m.ovIdx {
			m.ovIdx[i] = -1
		}
	}
	if o := m.ovIdx[id]; o >= 0 {
		for i := int(o) * W; i < int(o)*W+W; i++ {
			m.ovVal[i] = w
		}
		return nil
	}
	m.ovIdx[id] = int32(len(m.ovNets))
	m.ovNets = append(m.ovNets, int32(id))
	for i := 0; i < W; i++ {
		m.ovVal = append(m.ovVal, w)
	}
	return nil
}

// ClearOverride removes one net from the override list.
// Differential oracle for a lane fault's window edge: an override switched
// off mid-trace (TestWindowedLaneFaultInsideHold).
func (m *Machine) ClearOverride(id netlist.NetID) {
	if m.ovIdx == nil || int(id) < 0 || int(id) >= len(m.ovIdx) {
		return
	}
	o := m.ovIdx[id]
	if o < 0 {
		return
	}
	W := m.width
	last := int32(len(m.ovNets) - 1)
	m.ovNets[o] = m.ovNets[last]
	copy(m.ovVal[int(o)*W:int(o)*W+W], m.ovVal[int(last)*W:int(last)*W+W])
	m.ovIdx[m.ovNets[o]] = o
	m.ovNets = m.ovNets[:last]
	m.ovVal = m.ovVal[:int(last)*W]
	m.ovIdx[id] = -1
}

// StateWords exposes the current flip-flop state — Width() words per DFF
// in compile order (one word per DFF on width-1 machines); used by tests
// and by checkpointing.
func (m *Machine) StateWords() []uint64 {
	return append([]uint64(nil), m.state...)
}

// SetStateWords loads a flip-flop state snapshot previously captured with
// StateWords (or produced by a machine compiled from a topologically
// identical netlist, whose DFF compile order matches). It overwrites the
// current state without touching net values, the cycle counter or any
// configuration — the state-handoff primitive the serial windowed-SEU
// oracle uses to splice a healthy machine's registers into a mutant at a
// window boundary.
func (m *Machine) SetStateWords(ws []uint64) error {
	if len(ws) != len(m.state) {
		return fmt.Errorf("sim: state snapshot has %d words, machine has %d", len(ws), len(m.state))
	}
	copy(m.state, ws)
	return nil
}

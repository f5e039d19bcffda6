package sim

// Fanout-cone replay. A lane patch or lane fault on a set of cells can
// change only their transitive fanout, closed through flip-flops; every
// other net carries the unperturbed design's value in every lane. Under
// broadcast stimulus that value is one bit per step, the same for every
// lane, so a caller holding those bits (internal/repair memoizes them per
// implementation and stimulus) can replay the cone alone: each step it
// loads the cone's boundary nets as broadcast words, evaluates only the
// cone's nodes through the hooked pass, and latches only the cone's
// flip-flops. Every lane of the cone then carries exactly the value a
// whole-program replay gives it.

import (
	"fmt"
	"slices"

	"fpgadbg/internal/netlist"
)

// Cone is the fanout cone of a set of cells in one compiled program:
// the cells' output nets, every net computed from a cone net, and the
// output of every flip-flop whose D input is a cone net. It is a view of
// the program and serves every fork of it, at any width.
type Cone struct {
	nodes    []int32 // program node indices, in schedule order
	dffs     []int32 // flip-flops latching a cone net
	boundary []int32 // non-cone nets read by cone nodes, ascending
	pos      []int   // trace columns of the primary outputs the cone drives
	total    int     // program nodes
}

// Nodes returns how many compiled nodes the cone evaluates per step.
func (c *Cone) Nodes() int { return len(c.nodes) }

// Share returns the cone's nodes as a fraction of the program's.
func (c *Cone) Share() float64 {
	if c.total == 0 {
		return 0
	}
	return float64(len(c.nodes)) / float64(c.total)
}

// Boundary returns the nets outside the cone that cone nodes read:
// primary inputs, non-cone flip-flop outputs and non-cone LUT outputs.
// ResumeConeInto takes their streams in this order.
func (c *Cone) Boundary() []netlist.NetID {
	out := make([]netlist.NetID, len(c.boundary))
	for i, n := range c.boundary {
		out[i] = netlist.NetID(n)
	}
	return out
}

// POs returns the trace columns (indices into PONames) of the primary
// outputs driven from inside the cone; a cone replay records exactly
// these, column k of its trace being POs()[k]. The other outputs carry
// the unperturbed design's values.
func (c *Cone) POs() []int { return c.pos }

// buildReaders indexes, per net, the program nodes reading it and the
// flip-flops latching it (flip-flop d stored as -1-d).
func (m *Machine) buildReaders() {
	nets := len(m.val) / m.width
	off := make([]int32, nets+1)
	for _, f := range m.fanin {
		off[f+1]++
	}
	for _, d := range m.dffD {
		off[d+1]++
	}
	for i := 1; i <= nets; i++ {
		off[i] += off[i-1]
	}
	rd := make([]int32, off[nets])
	fill := append([]int32(nil), off[:nets]...)
	for i := range m.nodes {
		n := &m.nodes[i]
		for _, f := range m.fanin[n.start : n.start+n.nin] {
			rd[fill[f]] = int32(i)
			fill[f]++
		}
	}
	for d, net := range m.dffD {
		rd[fill[net]] = int32(-1 - d)
		fill[net]++
	}
	m.readOff, m.readers = off, rd
}

// Cone returns the fanout cone of cells, which must be compiled LUTs.
// The net-to-reader index it walks is built on the first call and kept
// by this machine (not shared with forks).
func (m *Machine) Cone(cells []netlist.CellID) (*Cone, error) {
	if m.readOff == nil {
		m.buildReaders()
	}
	in := make([]bool, len(m.val)/m.width)
	var queue []int32
	for _, cell := range cells {
		if int(cell) < 0 || int(cell) >= len(m.nodeOfCell) || m.nodeOfCell[cell] < 0 {
			return nil, fmt.Errorf("sim: cone of cell %d, which is not a compiled LUT", cell)
		}
		out := m.nodes[m.nodeOfCell[cell]].out
		if !in[out] {
			in[out] = true
			queue = append(queue, out)
		}
	}
	for len(queue) > 0 {
		net := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, r := range m.readers[m.readOff[net]:m.readOff[net+1]] {
			var out int32
			if r >= 0 {
				out = m.nodes[r].out
			} else {
				out = m.dffQ[-1-r]
			}
			if !in[out] {
				in[out] = true
				queue = append(queue, out)
			}
		}
	}
	c := &Cone{total: len(m.nodes)}
	seen := make(map[int32]bool)
	for i := range m.nodes {
		n := &m.nodes[i]
		if !in[n.out] {
			continue
		}
		c.nodes = append(c.nodes, int32(i))
		for _, f := range m.fanin[n.start : n.start+n.nin] {
			if !in[f] && !seen[f] {
				seen[f] = true
				c.boundary = append(c.boundary, f)
			}
		}
	}
	slices.Sort(c.boundary)
	for d, net := range m.dffD {
		if in[net] {
			c.dffs = append(c.dffs, int32(d))
		}
	}
	for col, po := range m.pos {
		if in[po] {
			c.pos = append(c.pos, col)
		}
	}
	return c, nil
}

// ResumeConeInto replays steps [from, from+n) of a broadcast stimulus on
// the cone alone, continuing from the machine's current flip-flop state
// as ResumeTraceInto does. boundary[i] is the packed stream of
// c.Boundary()[i] — bit s is the net's value at step s, broadcast to
// every lane — and must cover every replayed step. Each step loads the
// boundary, evaluates the cone's nodes through the hooked pass (lane
// patches, node lane faults and overrides apply), records the cone's
// primary outputs into tr (column k is c.POs()[k]) and latches the cone's
// flip-flops. Source-net lane faults are not applied: callers arm only
// node hooks. The cycle counter advances, and a step is re-evaluated only
// when a boundary net changed or the last edge changed cone state, under
// the same rule as ResumeTraceInto.
func (m *Machine) ResumeConeInto(tr *Trace, c *Cone, boundary [][]uint64, from, n int) *Trace {
	W := m.width
	v := m.val
	tr.Cycles = n
	tr.NumPOs = len(c.pos)
	tr.NumProbes = 0
	tr.NumState = 0
	tr.Width = W
	tr.Outs = grow(tr.Outs, n*len(c.pos)*W)
	tr.ProbeVals = tr.ProbeVals[:0]
	tr.States = tr.States[:0]
	quiet := !m.windowed
	settled := false
	var moved uint64 // bit b: some boundary stream changes at step 64·(s>>6)+b
	for k := 0; k < n; k++ {
		s := from + k
		if k == 0 || s&63 == 0 {
			moved = boundaryMoves(boundary, s>>6)
		}
		// The first step loads every lane word: the plane may hold
		// lane-varying values from an earlier replay.
		changed := k == 0 || moved>>uint(s&63)&1 != 0
		if changed {
			for i, net := range c.boundary {
				w := -(boundary[i][s>>6] >> uint(s&63) & 1)
				o := int(net) * W
				for x := o; x < o+W; x++ {
					v[x] = w
				}
			}
		}
		if changed || !settled {
			for _, d := range c.dffs {
				q := int(m.dffQ[d]) * W
				copy(v[q:q+W], m.state[int(d)*W:int(d)*W+W])
			}
			for _, net := range m.ovNets {
				o := int(m.ovIdx[net]) * W
				copy(v[int(net)*W:int(net)*W+W], m.ovVal[o:o+W])
			}
			m.evalHookedSched(c.nodes)
		}
		o := k * len(c.pos) * W
		for i, col := range c.pos {
			po := int(m.pos[col]) * W
			copy(tr.Outs[o+i*W:o+(i+1)*W], v[po:po+W])
		}
		m.cycle++
		var diff uint64
		for _, d := range c.dffs {
			dst := m.state[int(d)*W : int(d)*W+W]
			src := int(m.dffD[d]) * W
			for w := range dst {
				diff |= dst[w] ^ v[src+w]
				dst[w] = v[src+w]
			}
		}
		settled = diff == 0 && quiet
	}
	return tr
}

// boundaryMoves returns, for stream word w, the steps at which any
// boundary stream differs from its value one step earlier (bit 0
// compares against the last bit of word w-1).
func boundaryMoves(boundary [][]uint64, w int) uint64 {
	var moved uint64
	for _, col := range boundary {
		prev := col[w] << 1
		if w > 0 {
			prev |= col[w-1] >> 63
		}
		moved |= col[w] ^ prev
	}
	return moved
}

package sim

import "fmt"

// Fork returns an independent Machine sharing this machine's compiled
// program. Compilation (levelization, truth-table expansion, CSR packing)
// is paid once; each fork carries only its own mutable state — net values,
// flip-flop state, bindings, probes and overrides — so N concurrent
// campaigns over the same design can each run a private machine off one
// cached compile. The program tables (nodes, fanin, truth tables, covers,
// PI/PO/DFF index tables) and the source netlist are shared read-only;
// neither the parent nor any fork may mutate the netlist afterwards.
//
// The fork starts in the reset state with the default all-PIs binding and
// no probes, overrides or lane faults, regardless of the parent's current
// state. It inherits the parent's lane width.
func (m *Machine) Fork() *Machine { return m.fork(m.width) }

// ForkWidth is Fork at another lane width: the fork shares the compiled
// program and carries width words per net. The compiled program is
// width-independent, so one compile serves every width; only the
// per-instance state is sized to the new width. width must be in
// [1, MaxWidth].
func (m *Machine) ForkWidth(width int) (*Machine, error) {
	if width < 1 || width > MaxWidth {
		return nil, fmt.Errorf("sim: lane width %d out of [1,%d]", width, MaxWidth)
	}
	return m.fork(width), nil
}

func (m *Machine) fork(width int) *Machine {
	f := &Machine{
		nl:         m.nl,
		width:      width,
		nodes:      m.nodes,
		fanin:      m.fanin,
		ttab:       m.ttab,
		covers:     m.covers,
		buf:        make([]uint64, len(m.buf)),
		levelOffN:  m.levelOffN,
		dffD:       m.dffD,
		dffQ:       m.dffQ,
		dffInit:    m.dffInit,
		pis:        m.pis,
		piNames:    m.piNames,
		pos:        m.pos,
		poNames:    m.poNames,
		nodeOfCell: m.nodeOfCell,
		val:        make([]uint64, len(m.val)/m.width*width),
		state:      make([]uint64, len(m.dffQ)*width),
		bound:      append([]int32(nil), m.pis...),
	}
	f.Reset()
	return f
}

// nodeBytes is the size of one compiled node: four int32 fields, the
// uint8 opcode and the uint16 truth table, padded to 4-byte alignment.
const nodeBytes = 20

// MemoryFootprint estimates the machine's resident bytes (compiled
// program plus per-instance state); the campaign service's artifact cache
// charges cached programs against its byte budget with it.
func (m *Machine) MemoryFootprint() int64 {
	b := int64(256)
	b += int64(len(m.nodes)) * nodeBytes
	b += int64(len(m.fanin)) * 4
	b += int64(len(m.ttab)) * 8
	for i := range m.covers {
		b += 32 + int64(len(m.covers[i].Cubes))*16
	}
	b += int64(len(m.buf)+len(m.val)+len(m.state)+len(m.dffInit)) * 8
	b += int64(len(m.dffD)+len(m.dffQ)+len(m.pis)+len(m.pos)+len(m.bound)) * 4
	b += int64(len(m.levelOffN)) * 4
	for _, s := range m.piNames {
		b += 16 + int64(len(s))
	}
	for _, s := range m.poNames {
		b += 16 + int64(len(s))
	}
	return b
}

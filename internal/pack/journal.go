package pack

import "fpgadbg/internal/netlist"

// The packing journal mirrors the netlist's (see netlist/journal.go): an
// append-only undo log that core.Layout transactions enable around every
// physical update, so a failed or speculative change restores the packing
// in O(delta) instead of deep-copying every CLB.

type packOpKind uint8

const (
	opAssign packOpKind = iota
	opUnassign
	opAddCLB
)

type packOp struct {
	kind  packOpKind
	cell  netlist.CellID
	clb   int
	idx   int // slot index within the CLB's LUT or FF list (opUnassign)
	isLUT bool
}

// SetJournaling enables or disables the packing journal.
func (p *Packed) SetJournaling(on bool) { p.journaling = on }

// JournalLen returns the current journal position (a nested-checkpoint
// mark).
func (p *Packed) JournalLen() int { return len(p.journal) }

// TruncateJournal discards entries at or beyond mark (commit).
func (p *Packed) TruncateJournal(mark int) {
	if mark < len(p.journal) {
		p.journal = p.journal[:mark]
	}
}

// RollbackJournal undoes every packing mutation recorded at or beyond
// mark, in reverse order, and truncates the journal.
func (p *Packed) RollbackJournal(mark int) {
	for i := len(p.journal) - 1; i >= mark; i-- {
		op := &p.journal[i]
		switch op.kind {
		case opAssign:
			b := &p.CLBs[op.clb]
			if op.isLUT {
				b.LUTs = b.LUTs[:len(b.LUTs)-1]
			} else {
				b.FFs = b.FFs[:len(b.FFs)-1]
			}
			delete(p.CellCLB, op.cell)
		case opUnassign:
			b := &p.CLBs[op.clb]
			if op.isLUT {
				b.LUTs = insertAt(b.LUTs, op.idx, op.cell)
			} else {
				b.FFs = insertAt(b.FFs, op.idx, op.cell)
			}
			p.CellCLB[op.cell] = op.clb
		case opAddCLB:
			p.CLBs = p.CLBs[:len(p.CLBs)-1]
		}
	}
	p.journal = p.journal[:mark]
}

func (p *Packed) record(op packOp) {
	if p.journaling {
		p.journal = append(p.journal, op)
	}
}

func insertAt(s []netlist.CellID, i int, v netlist.CellID) []netlist.CellID {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

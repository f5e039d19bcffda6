package netlist

import (
	"fmt"

	"fpgadbg/internal/logic"
)

// The mutation journal. While journaling is enabled (core.Layout
// transactions turn it on), every mutating method appends the inverse
// operation to an append-only undo log. RollbackJournal replays the log
// tail in reverse, restoring the netlist bit-identically in O(delta);
// nested transactions are integer marks into the same log, so an inner
// rollback never disturbs an outer checkpoint. The log costs one branch
// per mutation when disabled.

type journalKind uint8

const (
	opNetAdded journalKind = iota
	opPIAdded
	opPOAdded
	opCellAdded
	opFaninSet
	opFuncSet
	opInitSet
	opCellRemoved
)

type journalOp struct {
	kind journalKind
	cell CellID
	net  NetID
	pin  int
	init uint8
	// hadDriver marks a removed cell that was still its output's driver.
	hadDriver bool
	name      string
	fn        logic.Cover
}

// SetJournaling enables or disables the mutation journal. Turning it off
// does not discard recorded operations; pair with TruncateJournal(0) when
// closing the outermost transaction.
func (n *Netlist) SetJournaling(on bool) { n.journaling = on }

// JournalActive reports whether mutations are currently being recorded.
func (n *Netlist) JournalActive() bool { return n.journaling }

// JournalLen returns the current journal position — the mark value for a
// nested checkpoint.
func (n *Netlist) JournalLen() int { return len(n.journal) }

// TruncateJournal discards journal entries at or beyond mark without
// applying them (transaction commit).
func (n *Netlist) TruncateJournal(mark int) {
	if mark < len(n.journal) {
		n.journal = n.journal[:mark]
	}
}

// RollbackJournal undoes every mutation recorded at or beyond mark, in
// reverse order, and truncates the journal to mark.
func (n *Netlist) RollbackJournal(mark int) {
	for i := len(n.journal) - 1; i >= mark; i-- {
		op := &n.journal[i]
		switch op.kind {
		case opNetAdded:
			delete(n.netByName, op.name)
			if int(op.net) != len(n.Nets)-1 {
				panic(fmt.Sprintf("netlist: journal out of order: net %d is not the newest (%d)", op.net, len(n.Nets)-1))
			}
			n.Nets = n.Nets[:op.net]
		case opPIAdded:
			n.PIs = n.PIs[:len(n.PIs)-1]
		case opPOAdded:
			n.POs = n.POs[:len(n.POs)-1]
		case opCellAdded:
			c := &n.Cells[op.cell]
			if n.Nets[c.Out].Driver == op.cell {
				n.Nets[c.Out].Driver = NilCell
			}
			delete(n.cellByName, op.name)
			if int(op.cell) != len(n.Cells)-1 {
				panic(fmt.Sprintf("netlist: journal out of order: cell %d is not the newest (%d)", op.cell, len(n.Cells)-1))
			}
			n.Cells = n.Cells[:op.cell]
		case opFaninSet:
			n.Cells[op.cell].Fanin[op.pin] = op.net
		case opFuncSet:
			n.Cells[op.cell].Func = op.fn
		case opInitSet:
			n.Cells[op.cell].Init = op.init
		case opCellRemoved:
			c := &n.Cells[op.cell]
			c.Dead = false
			n.cellByName[op.name] = op.cell
			if op.hadDriver {
				n.Nets[c.Out].Driver = op.cell
			}
		}
	}
	if mark < len(n.journal) {
		n.version++
	}
	n.journal = n.journal[:mark]
}

// Version returns the netlist's mutation counter: every mutating method
// (the Add*, Set*, SwapFanin, MarkPO and Remove* family) and every
// RollbackJournal that undoes anything bumps it, journaling on or off.
// A compiled artifact tagged with the version it was derived from is
// current while Version still returns that value — the check costs one
// load, where a Fingerprint rehashes the whole netlist. Writes straight
// to Cells or Nets fields bypass the counter. Clones start at zero.
func (n *Netlist) Version() uint64 { return n.version }

func (n *Netlist) record(op journalOp) {
	n.version++
	if n.journaling {
		n.journal = append(n.journal, op)
	}
}

// SetFunc replaces a LUT's logic function (journaled). The cover is
// cloned on write, so callers may keep mutating their copy.
func (n *Netlist) SetFunc(cell CellID, f logic.Cover) error {
	if !n.validCell(cell) {
		return fmt.Errorf("netlist: SetFunc: invalid cell %d", cell)
	}
	c := &n.Cells[cell]
	if c.Kind != KindLUT {
		return fmt.Errorf("netlist: SetFunc: cell %q is not a LUT", c.Name)
	}
	if f.N != len(c.Fanin) {
		return fmt.Errorf("netlist: SetFunc: cover width %d != fanin count %d", f.N, len(c.Fanin))
	}
	n.record(journalOp{kind: opFuncSet, cell: cell, fn: c.Func})
	c.Func = f.Clone()
	return nil
}

// SetInit sets a DFF's power-on value (journaled).
func (n *Netlist) SetInit(cell CellID, init uint8) error {
	if !n.validCell(cell) {
		return fmt.Errorf("netlist: SetInit: invalid cell %d", cell)
	}
	c := &n.Cells[cell]
	if c.Kind != KindDFF {
		return fmt.Errorf("netlist: SetInit: cell %q is not a DFF", c.Name)
	}
	if init > 1 {
		return fmt.Errorf("netlist: SetInit: init %d not 0/1", init)
	}
	n.record(journalOp{kind: opInitSet, cell: cell, init: c.Init})
	c.Init = init
	return nil
}

// SwapFanin exchanges two fanin pins of a cell (journaled as two rewires).
func (n *Netlist) SwapFanin(cell CellID, a, b int) error {
	if !n.validCell(cell) {
		return fmt.Errorf("netlist: SwapFanin: invalid cell %d", cell)
	}
	c := &n.Cells[cell]
	if a < 0 || b < 0 || a >= len(c.Fanin) || b >= len(c.Fanin) {
		return fmt.Errorf("netlist: SwapFanin: cell %q has no pins %d,%d", c.Name, a, b)
	}
	if a == b {
		return nil
	}
	n.record(journalOp{kind: opFaninSet, cell: cell, pin: a, net: c.Fanin[a]})
	n.record(journalOp{kind: opFaninSet, cell: cell, pin: b, net: c.Fanin[b]})
	c.Fanin[a], c.Fanin[b] = c.Fanin[b], c.Fanin[a]
	return nil
}

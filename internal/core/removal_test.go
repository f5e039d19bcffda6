package core

import (
	"testing"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
)

// TestApplyDeltaRemovesCells exercises the Removed path: debugging
// removes a redundant observer that was inserted earlier, freeing its CLB
// as slack.
func TestApplyDeltaRemovesCells(t *testing.T) {
	l := buildTest(t, 150, Spec{Seed: 21, TileFrac: 0.1})

	// Insert an observer pair first.
	var target netlist.NetID = netlist.NilNet
	for ni := range l.NL.Nets {
		if l.NL.Nets[ni].Driver != netlist.NilCell {
			target = netlist.NetID(ni)
			break
		}
	}
	d := l.NL.AddNet("obs_d")
	q := l.NL.AddNet("obs_q")
	lut, err := l.NL.AddLUT("obs_buf", logic.BufN(), []netlist.NetID{target}, d)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := l.NL.AddDFF("obs_ff", d, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ApplyDelta(Delta{Added: []netlist.CellID{lut, ff}}); err != nil {
		t.Fatal(err)
	}
	clbsWithObs := l.NumCLBs()

	// Now remove it again: tombstone the cells, then apply the delta.
	if err := l.NL.RemoveCell(ff); err != nil {
		t.Fatal(err)
	}
	if err := l.NL.RemoveCell(lut); err != nil {
		t.Fatal(err)
	}
	rep, err := l.ApplyDelta(Delta{Removed: []netlist.CellID{lut, ff}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AffectedTiles) == 0 {
		t.Fatal("removal affected no tiles")
	}
	if err := l.Check(); err != nil {
		t.Fatalf("layout invalid after removal: %v", err)
	}
	if l.NumCLBs() >= clbsWithObs {
		t.Fatalf("removal did not free the observer CLB: %d -> %d", clbsWithObs, l.NumCLBs())
	}
}

// TestApplyDeltaMixed applies an add, a modify and a remove in one delta —
// the shape of a real correction (replace a cone).
func TestApplyDeltaMixed(t *testing.T) {
	l := buildTest(t, 150, Spec{Seed: 22, TileFrac: 0.1})

	// Pick a victim LUT to remove; rewire its single sink... simpler:
	// pick a LUT and replace it with a freshly added equivalent.
	var victim netlist.CellID = netlist.NilCell
	for ci := range l.NL.Cells {
		c := &l.NL.Cells[ci]
		if !c.Dead && c.Kind == netlist.KindLUT && len(c.Fanin) >= 1 {
			victim = netlist.CellID(ci)
			break
		}
	}
	vc := l.NL.Cells[victim]
	oldOut := vc.Out
	fanin := append([]netlist.NetID(nil), vc.Fanin...)
	fn := vc.Func.Clone()

	// Remove the victim; its output net keeps its sinks, now driven by a
	// replacement cell.
	if err := l.NL.RemoveCell(victim); err != nil {
		t.Fatal(err)
	}
	repl, err := l.NL.AddLUT("replacement", fn, fanin, oldOut)
	if err != nil {
		t.Fatal(err)
	}
	// And modify some other cell's function benignly (same cover).
	var other netlist.CellID = netlist.NilCell
	for ci := range l.NL.Cells {
		c := &l.NL.Cells[ci]
		if !c.Dead && c.Kind == netlist.KindLUT && netlist.CellID(ci) != repl {
			other = netlist.CellID(ci)
			break
		}
	}
	rep, err := l.ApplyDelta(Delta{
		Added:    []netlist.CellID{repl},
		Modified: []netlist.CellID{other},
		Removed:  []netlist.CellID{victim},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Check(); err != nil {
		t.Fatalf("layout invalid after mixed delta: %v", err)
	}
	if len(rep.NewCLBs) == 0 {
		t.Fatal("replacement cell got no CLB")
	}
}

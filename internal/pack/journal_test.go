package pack

import (
	"fmt"
	"testing"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
)

// packDigest renders the packing state for bit-identity comparison.
func packDigest(p *Packed) string {
	s := ""
	for i := range p.CLBs {
		s += fmt.Sprintf("clb%d:%v|%v;", i, p.CLBs[i].LUTs, p.CLBs[i].FFs)
	}
	s += fmt.Sprintf("cells=%d", len(p.CellCLB))
	return s
}

func packFixture(t *testing.T) (*Packed, *netlist.Netlist) {
	t.Helper()
	nl := netlist.New("pj")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	var outs []netlist.NetID
	for i := 0; i < 4; i++ {
		o := nl.AddNet(fmt.Sprintf("o%d", i))
		nl.MustAddLUT(fmt.Sprintf("l%d", i), logic.AndN(2), []netlist.NetID{a, b}, o)
		outs = append(outs, o)
	}
	q := nl.AddNet("q")
	nl.MustAddDFF("ff0", outs[0], q, 0)
	nl.MarkPO(q)
	p, err := Pack(nl)
	if err != nil {
		t.Fatal(err)
	}
	return p, nl
}

func TestPackJournalRollback(t *testing.T) {
	p, nl := packFixture(t)
	want := packDigest(p)
	p.SetJournaling(true)
	mark := p.JournalLen()

	// Unassign an existing LUT and FF, add a CLB, assign new cells into it.
	lut0, _ := nl.CellByName("l0")
	ff0, _ := nl.CellByName("ff0")
	if err := p.Unassign(lut0); err != nil {
		t.Fatal(err)
	}
	if err := p.Unassign(ff0); err != nil {
		t.Fatal(err)
	}
	clb := p.AddCLB()
	if err := p.Assign(lut0, clb); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign(ff0, clb); err != nil {
		t.Fatal(err)
	}
	if packDigest(p) == want {
		t.Fatal("mutations did not change the packing")
	}

	p.RollbackJournal(mark)
	if got := packDigest(p); got != want {
		t.Fatalf("rollback did not restore packing:\n got %s\nwant %s", got, want)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPackJournalCommitKeepsState(t *testing.T) {
	p, nl := packFixture(t)
	p.SetJournaling(true)
	mark := p.JournalLen()
	lut0, _ := nl.CellByName("l0")
	if err := p.Unassign(lut0); err != nil {
		t.Fatal(err)
	}
	p.TruncateJournal(mark)
	if p.JournalLen() != 0 {
		t.Fatal("commit left journal entries")
	}
	if _, packed := p.CellCLB[lut0]; packed {
		t.Fatal("commit reverted the mutation")
	}
}

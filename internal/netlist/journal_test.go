package netlist

import (
	"testing"

	"fpgadbg/internal/logic"
)

// journalFixture builds a small sequential netlist.
func journalFixture() (*Netlist, CellID, CellID) {
	n := New("jt")
	a := n.AddPI("a")
	b := n.AddPI("b")
	x := n.AddNet("x")
	q := n.AddNet("q")
	lut := n.MustAddLUT("g1", logic.AndN(2), []NetID{a, b}, x)
	ff := n.MustAddDFF("ff1", x, q, 0)
	n.MarkPO(q)
	return n, lut, ff
}

func TestJournalRollbackRestoresFingerprint(t *testing.T) {
	n, lut, ff := journalFixture()
	want := n.Fingerprint()
	n.SetJournaling(true)
	mark := n.JournalLen()

	// Every journaled mutation kind.
	pi := n.AddPI("extra_in")
	out := n.AddNet("extra_out")
	extra, err := n.AddLUT("g2", logic.OrN(2), []NetID{pi, n.PIs[0]}, out)
	if err != nil {
		t.Fatal(err)
	}
	n.MarkPO(out)
	if err := n.SetFanin(extra, 1, n.PIs[1]); err != nil {
		t.Fatal(err)
	}
	if err := n.SetFunc(lut, logic.NandN(2)); err != nil {
		t.Fatal(err)
	}
	if err := n.SetInit(ff, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.SwapFanin(lut, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.RemoveCell(extra); err != nil {
		t.Fatal(err)
	}
	if n.Fingerprint() == want {
		t.Fatal("mutations did not change the fingerprint")
	}

	n.RollbackJournal(mark)
	if got := n.Fingerprint(); got != want {
		t.Fatalf("rollback did not restore the netlist: %s != %s", got, want)
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.CellByName("g2"); ok {
		t.Fatal("rolled-back cell still resolvable by name")
	}
	if _, ok := n.NetByName("extra_in"); ok {
		t.Fatal("rolled-back net still resolvable by name")
	}
}

func TestJournalNestedMarks(t *testing.T) {
	n, lut, _ := journalFixture()
	n.SetJournaling(true)
	outer := n.JournalLen()
	if err := n.SetFunc(lut, logic.NandN(2)); err != nil {
		t.Fatal(err)
	}
	afterOuter := n.Fingerprint()

	inner := n.JournalLen()
	if err := n.SetFunc(lut, logic.OrN(2)); err != nil {
		t.Fatal(err)
	}
	n.RollbackJournal(inner)
	if got := n.Fingerprint(); got != afterOuter {
		t.Fatal("inner rollback disturbed outer state")
	}

	// Commit of the inner segment must not break the outer rollback.
	inner2 := n.JournalLen()
	if err := n.SetFunc(lut, logic.XorN(2)); err != nil {
		t.Fatal(err)
	}
	n.TruncateJournal(inner2) // commit inner — keeps the mutation
	n.RollbackJournal(outer)
	n2, _, _ := journalFixture()
	if n.Fingerprint() != n2.Fingerprint() {
		t.Fatal("outer rollback did not restore the pristine netlist")
	}
}

func TestJournalDisabledRecordsNothing(t *testing.T) {
	n, lut, _ := journalFixture()
	if err := n.SetFunc(lut, logic.NandN(2)); err != nil {
		t.Fatal(err)
	}
	if n.JournalLen() != 0 {
		t.Fatal("journal recorded while disabled")
	}
	if n.Clone().JournalActive() {
		t.Fatal("clone inherited journaling")
	}
}

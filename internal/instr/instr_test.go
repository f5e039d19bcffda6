package instr

import (
	"testing"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
)

// smallDesign: two XOR stages producing observable internal nets.
func smallDesign(t testing.TB) (*netlist.Netlist, []netlist.NetID) {
	t.Helper()
	nl := netlist.New("d")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	c := nl.AddPI("c")
	x := nl.AddNet("x")
	y := nl.AddNet("y")
	nl.MustAddLUT("g1", logic.XorN(2), []netlist.NetID{a, b}, x)
	nl.MustAddLUT("g2", logic.AndN(2), []netlist.NetID{x, c}, y)
	nl.MarkPO(y)
	return nl, []netlist.NetID{x, y}
}

func TestCLBCost(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 1, 3: 2, 8: 4}
	for w, want := range cases {
		if got := CLBCost(w); got != want {
			t.Errorf("CLBCost(%d) = %d, want %d", w, got, want)
		}
	}
}

func TestInsertMISRSignatureDiffers(t *testing.T) {
	// Identical circuits produce identical signatures; a corrupted circuit
	// produces a different one — the detection flag.
	mkWithMISR := func(corrupt bool) []uint64 {
		nl, obs := smallDesign(t)
		if corrupt {
			id, _ := nl.CellByName("g2")
			nl.Cells[id].Func = logic.OrN(2)
		}
		m, err := InsertMISR(nl, "misr", obs)
		if err != nil {
			t.Fatal(err)
		}
		if err := nl.CheckDriven(); err != nil {
			t.Fatal(err)
		}
		mach, err := sim.Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		if err := mach.BindNames([]string{"a", "b", "c"}); err != nil {
			t.Fatal(err)
		}
		if err := mach.Probe(m.State...); err != nil {
			t.Fatal(err)
		}
		stim := make([][]uint64, 8)
		for cyc := range stim {
			stim[cyc] = []uint64{0xaaaa, 0x00ff, 0x0f0f}
		}
		tr := mach.RunTrace(stim)
		var sig []uint64
		for i := range m.State {
			sig = append(sig, tr.ProbeVal(tr.Cycles-1, i))
		}
		return sig
	}
	clean1 := mkWithMISR(false)
	clean2 := mkWithMISR(false)
	bad := mkWithMISR(true)
	for i := range clean1 {
		if clean1[i] != clean2[i] {
			t.Fatal("identical designs gave different signatures")
		}
	}
	same := true
	for i := range clean1 {
		if clean1[i] != bad[i] {
			same = false
		}
	}
	if same {
		t.Fatal("corrupted design gave identical signature")
	}
}

func TestMISRDoesNotDisturbFunction(t *testing.T) {
	nl, obs := smallDesign(t)
	ref, _ := smallDesign(t)
	if _, err := InsertMISR(nl, "misr", obs); err != nil {
		t.Fatal(err)
	}
	// Original PO behaviour is unchanged.
	mm, err := sim.Equivalent(projectPOs(t, nl, ref), ref, 8, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mm != nil {
		t.Fatalf("MISR changed functional outputs: %v", mm)
	}
}

// projectPOs returns nl unchanged; it exists to document that MISR state
// is not exported as POs, so PO sets already match.
func projectPOs(t testing.TB, nl, ref *netlist.Netlist) *netlist.Netlist {
	t.Helper()
	if len(nl.POs) != len(ref.POs) {
		t.Fatal("MISR leaked primary outputs")
	}
	return nl
}

func TestInsertMISRErrors(t *testing.T) {
	nl, _ := smallDesign(t)
	if _, err := InsertMISR(nl, "m", nil); err == nil {
		t.Fatal("empty observation set accepted")
	}
	if _, err := InsertMISR(nl, "m", []netlist.NetID{999}); err == nil {
		t.Fatal("invalid net accepted")
	}
}

func TestControlPointForcesValue(t *testing.T) {
	nl, _ := smallDesign(t)
	x, _ := nl.NetByName("x")
	cp, err := InsertControlPoint(nl, "cp", x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.CheckDriven(); err != nil {
		t.Fatal(err)
	}
	mach, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if err := mach.BindNames([]string{"a", "b", "c", "cp_sel", "cp_val"}); err != nil {
		t.Fatal(err)
	}
	cols, err := mach.POCols([]string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	const ones = ^uint64(0)
	tr := mach.RunTrace([][]uint64{
		{ones, 0, ones, 0, 0},    // normal mode (sel=0): y = (a^b)&c
		{ones, 0, ones, ones, 0}, // force mode: x forced to 0 regardless of a,b
		{0, 0, ones, ones, ones}, // force mode: x forced to 1
	})
	if y := tr.Out(0, cols[0]); y != ones {
		t.Fatalf("normal mode broken: y=%x", y)
	}
	if y := tr.Out(1, cols[0]); y != 0 {
		t.Fatalf("force-0 failed: y=%x", y)
	}
	if y := tr.Out(2, cols[0]); y != ones {
		t.Fatalf("force-1 failed: y=%x", y)
	}
	if len(cp.Cells) != 1 {
		t.Fatalf("expected 1 mux cell, got %d", len(cp.Cells))
	}
}

func TestControlPointExcludes(t *testing.T) {
	nl, _ := smallDesign(t)
	x, _ := nl.NetByName("x")
	g2, _ := nl.CellByName("g2")
	_, err := InsertControlPoint(nl, "cp", x, map[netlist.CellID]bool{g2: true})
	if err != nil {
		t.Fatal(err)
	}
	// g2 still reads the raw net.
	if nl.Cells[g2].Fanin[0] != x {
		t.Fatal("excluded sink was rewired")
	}
}

func TestControlPointNoSinks(t *testing.T) {
	nl := netlist.New("n")
	a := nl.AddPI("a")
	nl.MarkPO(a)
	if _, err := InsertControlPoint(nl, "cp", a, nil); err == nil {
		t.Fatal("sink-less net accepted")
	}
}

package sim

import (
	"math/rand"
	"testing"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/testgen"
)

// TestLanePatchMatchesRecompiledNetlist arms one truth-table substitution
// per lane and checks every lane against an explicitly mutated and
// recompiled design, with clean lanes pinned to the unpatched stream.
func TestLanePatchMatchesRecompiledNetlist(t *testing.T) {
	for name, stim := range heldScalarStims(24, 11) {
		t.Run(name, func(t *testing.T) { checkLanePatchesMatchMutants(t, stim) })
	}
}

func checkLanePatchesMatchMutants(t *testing.T, stim [][]uint64) {
	nl := laneTestNetlist(t)
	prog, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	golden := prog.Fork().RunTrace(stim)

	type patch struct {
		lane int
		cell string
		tt   uint16
	}
	r := rand.New(rand.NewSource(5))
	var patches []patch
	cells := []string{"g_and", "g_xor", "g_inv"}
	for lane := 0; lane < 24; lane++ {
		patches = append(patches, patch{lane: lane, cell: cells[lane%len(cells)], tt: uint16(r.Intn(1 << 4))})
	}

	mu := prog.Fork()
	var cleanMask uint64 = ^uint64(0)
	for _, p := range patches {
		id, _ := nl.CellByName(p.cell)
		if err := mu.SetLanePatch(p.lane, id, p.tt); err != nil {
			t.Fatal(err)
		}
		cleanMask &^= uint64(1) << uint(p.lane)
	}
	got := mu.RunTrace(stim)

	for _, p := range patches {
		mutant := nl.Clone()
		id, _ := mutant.CellByName(p.cell)
		k := len(mutant.Cells[id].Fanin)
		tt := logic.NewTT(k)
		for m := uint64(0); m < 1<<uint(k); m++ {
			tt.SetBit(m, p.tt&(1<<m) != 0)
		}
		mutant.Cells[id].Func = tt.ToCover()
		m2, err := Compile(mutant)
		if err != nil {
			t.Fatal(err)
		}
		ref := m2.RunTrace(stim)
		for c := 0; c < got.Cycles; c++ {
			for po := 0; po < got.NumPOs; po++ {
				want := ref.Out(c, po) >> uint(p.lane) & 1
				if got.Out(c, po)>>uint(p.lane)&1 != want {
					t.Fatalf("cycle %d PO %d lane %d (%s tt=%04x): got %d want %d",
						c, po, p.lane, p.cell, p.tt, got.Out(c, po)>>uint(p.lane)&1, want)
				}
			}
		}
	}
	for c := 0; c < got.Cycles; c++ {
		for po := 0; po < got.NumPOs; po++ {
			if (got.Out(c, po)^golden.Out(c, po))&cleanMask != 0 {
				t.Fatalf("cycle %d PO %d: patch leaked into clean lanes", c, po)
			}
		}
	}

	// ClearLaneFaults drops patches along with faults.
	mu.ClearLaneFaults()
	if mu.LaneFaultsArmed() {
		t.Fatal("patches still armed after ClearLaneFaults")
	}
	again := mu.RunTrace(stim)
	for c := 0; c < again.Cycles; c++ {
		for po := 0; po < again.NumPOs; po++ {
			if again.Out(c, po) != golden.Out(c, po) {
				t.Fatalf("cycle %d PO %d: cleared machine differs from golden", c, po)
			}
		}
	}
}

// TestLanePatchComposesWithLaneFaults arms a fault and a patch on
// disjoint lanes of one fork and checks neither disturbs the other.
func TestLanePatchComposesWithLaneFaults(t *testing.T) {
	nl := laneTestNetlist(t)
	prog, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	stim := testgen.Repeat(testgen.ScalarBlocks(2, 12, 3), 2)
	andID, _ := nl.CellByName("g_and")
	dID, _ := nl.NetByName("d")

	mu := prog.Fork()
	if err := mu.SetLaneFault(2, LaneFault{Kind: LaneStuckAt1, Net: dID}); err != nil {
		t.Fatal(err)
	}
	if err := mu.SetLanePatch(5, andID, 0b1000); err != nil { // AND again: identity patch
		t.Fatal(err)
	}
	got := mu.RunTrace(stim)

	refStuck := prog.Fork()
	if err := refStuck.SetOverride(dID, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	rs := refStuck.RunTrace(stim)
	golden := prog.Fork().RunTrace(stim)
	for c := 0; c < got.Cycles; c++ {
		for po := 0; po < got.NumPOs; po++ {
			if got.Out(c, po)>>2&1 != rs.Out(c, po)>>2&1 {
				t.Fatalf("cycle %d PO %d: fault lane diverged from stuck reference", c, po)
			}
			// The identity patch must leave lane 5 on the golden stream.
			if got.Out(c, po)>>5&1 != golden.Out(c, po)>>5&1 {
				t.Fatalf("cycle %d PO %d: identity patch perturbed lane 5", c, po)
			}
		}
	}
}

// TestLanePatchValidation exercises the error paths.
func TestLanePatchValidation(t *testing.T) {
	nl := laneTestNetlist(t)
	m, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	andID, _ := nl.CellByName("g_and")
	ffID, _ := nl.CellByName("ff")
	if err := m.SetLanePatch(64, andID, 0); err == nil {
		t.Error("lane 64 accepted")
	}
	if err := m.SetLanePatch(0, netlist.CellID(999), 0); err == nil {
		t.Error("invalid cell accepted")
	}
	if err := m.SetLanePatch(0, ffID, 0); err == nil {
		t.Error("patch on a DFF accepted")
	}
	if m.LaneFaultsArmed() {
		t.Error("failed arms left state behind")
	}
}

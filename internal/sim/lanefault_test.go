package sim

import (
	"testing"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/testgen"
)

// laneTestNetlist builds a small sequential design with an AND, an XOR, a
// DFF and an inverter so every fault shape has a target.
func laneTestNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("lanes")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	ab := nl.AddNet("ab")
	d := nl.AddNet("d")
	q := nl.AddNet("q")
	y := nl.AddNet("y")
	nl.MustAddLUT("g_and", logic.AndN(2), []netlist.NetID{a, b}, ab)
	nl.MustAddLUT("g_xor", logic.XorN(2), []netlist.NetID{ab, q}, d)
	nl.MustAddDFF("ff", d, q, 0)
	nl.MustAddLUT("g_inv", logic.NotN(), []netlist.NetID{d}, y)
	nl.MarkPO(y)
	nl.MarkPO(d)
	return nl
}

// TestLaneFaultMatchesMutatedNetlist checks that each lane-fault shape
// reproduces, lane for lane, the behaviour of an explicitly mutated (or
// overridden) design, and that fault-free lanes stay untouched.
func TestLaneFaultMatchesMutatedNetlist(t *testing.T) {
	for name, stim := range heldScalarStims(16, 7) {
		t.Run(name, func(t *testing.T) { checkLaneFaultsMatchMutants(t, stim) })
	}
}

// heldScalarStims returns broadcast scalar stimulus for the two-input lane
// test netlist in two shapes: every pattern held 2 cycles, and every
// pattern held 4 cycles followed by a constant tail.
func heldScalarStims(patterns int, seed int64) map[string][][]uint64 {
	blocks := testgen.ScalarBlocks(2, patterns, seed)
	return map[string][][]uint64{
		"hold2": testgen.Repeat(blocks, 2),
		"hold4": holdWithTail(blocks, 4),
	}
}

func checkLaneFaultsMatchMutants(t *testing.T, stim [][]uint64) {
	nl := laneTestNetlist(t)
	prog, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}

	golden := prog.Fork().RunTrace(stim)

	// Lane 3: flip minterm 3 of g_and (output inverted when a=b=1).
	// Lane 9: stuck-at-1 on net d (driven by a LUT).
	// Lane 17: stuck-at-0 on PI b (source net).
	mu := prog.Fork()
	andID, _ := nl.CellByName("g_and")
	dID, _ := nl.NetByName("d")
	bID, _ := nl.NetByName("b")
	if err := mu.SetLaneFault(3, LaneFault{Kind: LaneLUTFlip, Cell: andID, Minterm: 3}); err != nil {
		t.Fatal(err)
	}
	if err := mu.SetLaneFault(9, LaneFault{Kind: LaneStuckAt1, Net: dID}); err != nil {
		t.Fatal(err)
	}
	if err := mu.SetLaneFault(17, LaneFault{Kind: LaneStuckAt0, Net: bID}); err != nil {
		t.Fatal(err)
	}
	got := mu.RunTrace(stim)

	// Reference mutants, one serial run each.
	flip := nl.Clone()
	fc, _ := flip.CellByName("g_and")
	tt := flip.Cells[fc].Func.MustTT()
	tt.SetBit(3, !tt.Bit(3))
	flip.Cells[fc].Func = tt.ToCover()
	mFlip, err := Compile(flip)
	if err != nil {
		t.Fatal(err)
	}
	refFlip := mFlip.RunTrace(stim)

	mStuck := prog.Fork()
	if err := mStuck.SetOverride(dID, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	refStuck := mStuck.RunTrace(stim)

	mPI := prog.Fork()
	if err := mPI.SetOverride(bID, 0); err != nil {
		t.Fatal(err)
	}
	refPI := mPI.RunTrace(stim)

	lanes := []struct {
		lane int
		ref  *Trace
		name string
	}{
		{3, refFlip, "lut-flip"},
		{9, refStuck, "stuck-at-1 d"},
		{17, refPI, "stuck-at-0 b"},
	}
	for c := 0; c < got.Cycles; c++ {
		for po := 0; po < got.NumPOs; po++ {
			g := got.Out(c, po)
			// Untouched lanes must match the golden stream exactly.
			clean := ^(uint64(1)<<3 | uint64(1)<<9 | uint64(1)<<17)
			if (g^golden.Out(c, po))&clean != 0 {
				t.Fatalf("cycle %d PO %d: fault leaked into clean lanes: got %x golden %x",
					c, po, g, golden.Out(c, po))
			}
			for _, l := range lanes {
				want := l.ref.Out(c, po) >> uint(l.lane) & 1
				if g>>uint(l.lane)&1 != want {
					t.Fatalf("cycle %d PO %d lane %d (%s): got %d want %d",
						c, po, l.lane, l.name, g>>uint(l.lane)&1, want)
				}
			}
		}
	}

	// Clearing the faults restores golden behaviour and keeps the fork
	// reusable for the next batch.
	mu.ClearLaneFaults()
	if mu.LaneFaultsArmed() {
		t.Fatal("faults still armed after ClearLaneFaults")
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

// TestLaneFaultValidation exercises the error paths.
func TestLaneFaultValidation(t *testing.T) {
	nl := laneTestNetlist(t)
	m, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	andID, _ := nl.CellByName("g_and")
	ffID, _ := nl.CellByName("ff")
	if err := m.SetLaneFault(64, LaneFault{Kind: LaneStuckAt0, Net: 0}); err == nil {
		t.Error("lane 64 accepted")
	}
	if err := m.SetLaneFault(0, LaneFault{Kind: LaneStuckAt0, Net: 999}); err == nil {
		t.Error("invalid net accepted")
	}
	if err := m.SetLaneFault(0, LaneFault{Kind: LaneLUTFlip, Cell: andID, Minterm: 4}); err == nil {
		t.Error("out-of-range minterm accepted")
	}
	if err := m.SetLaneFault(0, LaneFault{Kind: LaneLUTFlip, Cell: ffID}); err == nil {
		t.Error("lut-flip on a DFF accepted")
	}
	if m.LaneFaultsArmed() {
		t.Error("failed arms left state behind")
	}
}

// TestLaneFaultForkIsolation checks that forks do not share fault state.
func TestLaneFaultForkIsolation(t *testing.T) {
	nl := laneTestNetlist(t)
	prog, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	dID, _ := nl.NetByName("d")
	a := prog.Fork()
	if err := a.SetLaneFault(0, LaneFault{Kind: LaneStuckAt1, Net: dID}); err != nil {
		t.Fatal(err)
	}
	b := a.Fork()
	if b.LaneFaultsArmed() {
		t.Fatal("fork inherited armed lane faults")
	}
	stim := testgen.Repeat(testgen.ScalarBlocks(2, 4, 1), 1)
	ta := a.RunTrace(stim)
	tb := b.RunTrace(stim)
	diff := false
	for c := 0; c < ta.Cycles; c++ {
		for po := 0; po < ta.NumPOs; po++ {
			if ta.Out(c, po)&1 != tb.Out(c, po)&1 {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("armed fault had no effect on lane 0")
	}
}

// TestWindowedLaneFaultInsideHold arms, per held pattern, lane faults
// whose arming window opens and closes inside the hold — on a LUT-driven
// net and on a primary input — and checks each lane against a replay that
// switches an equivalent override on and off at the window edges.
func TestWindowedLaneFaultInsideHold(t *testing.T) {
	nl := laneTestNetlist(t)
	prog, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	const hold, patterns = 4, 16
	stim := testgen.Repeat(testgen.ScalarBlocks(2, patterns, 7), hold)
	dID, _ := nl.NetByName("d")
	bID, _ := nl.NetByName("b")

	type armed struct {
		lane     int
		net      netlist.NetID
		kind     LaneFaultKind
		from, to int32
	}
	var faults []armed
	for k := 0; k < patterns; k++ {
		from := int32(k*hold + 1)
		faults = append(faults,
			armed{1 + k, dID, LaneStuckAt1, from, from + 2},
			armed{32 + k, bID, LaneStuckAt0, from, from + 2})
	}
	mu := prog.Fork()
	for _, f := range faults {
		if err := mu.SetLaneFault(f.lane, LaneFault{Kind: f.kind, Net: f.net, From: f.from, To: f.to}); err != nil {
			t.Fatal(err)
		}
	}
	got := mu.RunTrace(stim)
	golden := prog.Fork().RunTrace(stim)

	for _, f := range faults {
		// Reference: three replay calls split at the window edges, the
		// override armed only for the middle one.
		ref := prog.Fork()
		var outs []uint64
		var tr Trace
		ref.Reset()
		word := uint64(0)
		if f.kind == LaneStuckAt1 {
			word = ^uint64(0)
		}
		for seg, part := range [][][]uint64{stim[:f.from], stim[f.from:f.to], stim[f.to:]} {
			if seg == 1 {
				if err := ref.SetOverride(f.net, word); err != nil {
					t.Fatal(err)
				}
			} else {
				ref.ClearOverride(f.net)
			}
			ref.ResumeTraceInto(&tr, part)
			outs = append(outs, tr.Outs...)
		}
		for c := 0; c < got.Cycles; c++ {
			for po := 0; po < got.NumPOs; po++ {
				want := outs[c*got.NumPOs+po] >> uint(f.lane) & 1
				if g := got.Out(c, po) >> uint(f.lane) & 1; g != want {
					t.Fatalf("lane %d window [%d,%d): cycle %d PO %d got %d want %d",
						f.lane, f.from, f.to, c, po, g, want)
				}
			}
		}
	}
	// Lane 0 carries no fault.
	for c := 0; c < got.Cycles; c++ {
		for po := 0; po < got.NumPOs; po++ {
			if (got.Out(c, po)^golden.Out(c, po))&1 != 0 {
				t.Fatalf("cycle %d PO %d: windowed faults leaked into lane 0", c, po)
			}
		}
	}
}

// TestSourcePerturbationsOnHeldRows pins a primary input by override, and
// perturbs primary inputs per lane (a stuck-at alone, and a stuck-at plus
// a bridge reading the stuck input on the same lane), under held rows.
// Each must match a plain replay of stimulus with those input columns
// rewritten.
func TestSourcePerturbationsOnHeldRows(t *testing.T) {
	nl := laneTestNetlist(t)
	prog, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	stim := holdWithTail(testgen.ScalarBlocks(2, 16, 3), 4)
	aID, _ := nl.NetByName("a")
	bID, _ := nl.NetByName("b")
	// rewrite replays stim with column j (PIs sort as a, b) forced to w.
	rewrite := func(forced map[int]uint64) *Trace {
		rows := make([][]uint64, len(stim))
		for c, row := range stim {
			rows[c] = append([]uint64(nil), row...)
			for j, w := range forced {
				rows[c][j] = w
			}
		}
		return prog.Fork().RunTrace(rows)
	}

	ov := prog.Fork()
	if err := ov.SetOverride(bID, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	got := ov.RunTrace(stim)
	want := rewrite(map[int]uint64{1: ^uint64(0)})
	for c := 0; c < got.Cycles; c++ {
		for po := 0; po < got.NumPOs; po++ {
			if got.Out(c, po) != want.Out(c, po) {
				t.Fatalf("PI override: cycle %d PO %d got %#x want %#x", c, po, got.Out(c, po), want.Out(c, po))
			}
		}
	}

	mu := prog.Fork()
	for _, f := range []struct {
		lane int
		f    LaneFault
	}{
		{9, LaneFault{Kind: LaneStuckAt1, Net: bID}},
		{5, LaneFault{Kind: LaneStuckAt0, Net: aID}},
		{5, LaneFault{Kind: LaneBridgeAND, Net: bID, Net2: aID}},
	} {
		if err := mu.SetLaneFault(f.lane, f.f); err != nil {
			t.Fatal(err)
		}
	}
	got = mu.RunTrace(stim)
	refs := map[int]*Trace{
		0: rewrite(nil),
		9: rewrite(map[int]uint64{1: ^uint64(0)}),
		5: rewrite(map[int]uint64{0: 0, 1: 0}),
	}
	for c := 0; c < got.Cycles; c++ {
		for po := 0; po < got.NumPOs; po++ {
			for lane, ref := range refs {
				if g, w := got.Out(c, po)>>uint(lane)&1, ref.Out(c, po)>>uint(lane)&1; g != w {
					t.Fatalf("PI lane faults: cycle %d PO %d lane %d got %d want %d", c, po, lane, g, w)
				}
			}
		}
	}
}

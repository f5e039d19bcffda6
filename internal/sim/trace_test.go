package sim

import (
	"testing"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/testgen"
)

func TestRunTraceMatchesStepOnFullAdder(t *testing.T) {
	n := fullAdder(t)
	m, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	pis := n.SortedPINames()
	if err := m.BindNames(pis); err != nil {
		t.Fatal(err)
	}
	stim := testgen.RandomBlocks(len(pis), 8, 3)
	tr := m.RunTrace(stim)
	if tr.Cycles != 8 || tr.NumPOs != 2 {
		t.Fatalf("trace shape %d×%d", tr.Cycles, tr.NumPOs)
	}
	cols, err := m.POCols([]string{"sum", "cout"})
	if err != nil {
		t.Fatal(err)
	}
	// Replay through the reference interpreter and compare.
	m2, err := CompileReference(n)
	if err != nil {
		t.Fatal(err)
	}
	for c, row := range stim {
		in := make(map[string]uint64, len(pis))
		for j, name := range pis {
			in[name] = row[j]
		}
		out, err := m2.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Out(c, cols[0]) != out["sum"] || tr.Out(c, cols[1]) != out["cout"] {
			t.Fatalf("cycle %d: trace and Step disagree", c)
		}
	}
}

func TestBindSubsetHoldsUnboundAtZero(t *testing.T) {
	n := fullAdder(t)
	m, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	// Bind only a and b; cin stays 0 → cout is simply a AND b.
	if err := m.BindNames([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	cols, err := m.POCols([]string{"cout"})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.RunTrace([][]uint64{{0xff00, 0x0ff0}})
	if got := tr.Out(0, cols[0]); got != 0xff00&0x0ff0 {
		t.Fatalf("cout = %#x, want %#x", got, 0xff00&0x0ff0)
	}
}

func TestSlotErrors(t *testing.T) {
	m, err := Compile(fullAdder(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Slot("sum"); err == nil {
		t.Fatal("Slot on a non-PI should fail")
	}
	if err := m.Bind([]PISlot{99}); err == nil {
		t.Fatal("Bind of out-of-range slot should fail")
	}
	if _, err := m.POCols([]string{"a"}); err == nil {
		t.Fatal("POCols on a non-PO should fail")
	}
}

func TestProbeStreams(t *testing.T) {
	n := fullAdder(t)
	m, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := n.NetByName("sum")
	if err := m.Probe(sum); err != nil {
		t.Fatal(err)
	}
	pis := n.SortedPINames()
	if err := m.BindNames(pis); err != nil {
		t.Fatal(err)
	}
	stim := testgen.RandomBlocks(len(pis), 4, 11)
	tr := m.RunTrace(stim)
	cols, _ := m.POCols([]string{"sum"})
	for c := 0; c < tr.Cycles; c++ {
		if tr.ProbeVal(c, 0) != tr.Out(c, cols[0]) {
			t.Fatalf("cycle %d: probe of PO net disagrees with PO stream", c)
		}
	}
}

func TestStateCaptureMatchesStateWords(t *testing.T) {
	// 2-bit counter from sim_test.go.
	n := netlist.New("cnt")
	q0 := n.AddNet("q0")
	q1 := n.AddNet("q1")
	d0 := n.AddNet("d0")
	d1 := n.AddNet("d1")
	n.MustAddLUT("inv", logic.NotN(), []netlist.NetID{q0}, d0)
	n.MustAddLUT("xor", logic.XorN(2), []netlist.NetID{q1, q0}, d1)
	n.MustAddDFF("ff0", d0, q0, 0)
	n.MustAddDFF("ff1", d1, q1, 0)
	n.MarkPO(q0)
	n.MarkPO(q1)
	m, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	m.CaptureState(true)
	tr := m.RunTrace(make([][]uint64, 6))
	if tr.NumState != 2 {
		t.Fatalf("NumState = %d", tr.NumState)
	}
	m2, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	var step Trace
	for c := 0; c < 6; c++ {
		m2.ResumeTraceInto(&step, make([][]uint64, 1)) // one cycle: Eval, then clock
		sw := m2.StateWords()
		for i := range sw {
			if tr.State(c, i) != sw[i] {
				t.Fatalf("cycle %d dff %d: trace state %#x != StateWords %#x", c, i, tr.State(c, i), sw[i])
			}
		}
	}
}

func TestRunTraceIntoReusesBuffers(t *testing.T) {
	n := fullAdder(t)
	m, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	stim := testgen.RandomBlocks(3, 16, 5)
	var tr Trace
	m.RunTraceInto(&tr, stim)
	first := &tr.Outs[0]
	m.RunTraceInto(&tr, stim)
	if first != &tr.Outs[0] {
		t.Fatal("RunTraceInto reallocated an output buffer of unchanged size")
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.RunTraceInto(&tr, stim)
	})
	if allocs != 0 {
		t.Fatalf("RunTraceInto allocates %.1f times per run, want 0", allocs)
	}
}

func TestOverrideHonoredByExecutionCore(t *testing.T) {
	// Chain: x = a AND b ; y = NOT x. Overriding x must be visible on y
	// (downstream logic reads the forced value) and must survive Eval.
	n := netlist.New("ov")
	a := n.AddPI("a")
	b := n.AddPI("b")
	x := n.AddNet("x")
	y := n.AddNet("y")
	n.MustAddLUT("and", logic.AndN(2), []netlist.NetID{a, b}, x)
	n.MustAddLUT("not", logic.NotN(), []netlist.NetID{x}, y)
	n.MarkPO(y)
	m, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetOverride(x, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Probe(x); err != nil {
		t.Fatal(err)
	}
	tr := m.RunTrace([][]uint64{{0, 0}})
	if got := tr.Out(0, 0); got != 0 {
		t.Fatalf("override not observed downstream: y = %#x, want 0", got)
	}
	if got := tr.ProbeVal(0, 0); got != ^uint64(0) {
		t.Fatalf("overridden net reads %#x", got)
	}
	m.ClearOverride(x)
	// Overrides also pin primary inputs, beating bound stimulus.
	if err := m.SetOverride(a, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if err := m.BindNames([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	cols, _ := m.POCols([]string{"y"})
	tr = m.RunTrace([][]uint64{{0, ^uint64(0)}}) // stimulus says a=0, override says a=1
	if got := tr.Out(0, cols[0]); got != 0 {
		t.Fatalf("PI override lost: y = %#x, want 0", got)
	}
	// ClearOverride restores normal evaluation.
	m.ClearOverride(a)
	tr = m.RunTrace([][]uint64{{0, ^uint64(0)}})
	if got := tr.Out(0, cols[0]); got != ^uint64(0) {
		t.Fatalf("cleared override still active: y = %#x", got)
	}
}

func TestOverrideListMaintenance(t *testing.T) {
	n := fullAdder(t)
	m, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := n.NetByName("a")
	b, _ := n.NetByName("b")
	cin, _ := n.NetByName("cin")
	if err := m.BindNames([]string{"a", "b", "cin"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Probe(a, b, cin); err != nil {
		t.Fatal(err)
	}
	// pinned runs one cycle and reads back the three input nets.
	stim := []uint64{0xF0, 0xF1, 0xF2}
	pinned := func() [3]uint64 {
		tr := m.RunTrace([][]uint64{stim})
		return [3]uint64{tr.ProbeVal(0, 0), tr.ProbeVal(0, 1), tr.ProbeVal(0, 2)}
	}
	for _, id := range []netlist.NetID{a, b, cin} {
		if err := m.SetOverride(id, uint64(id)+0x100); err != nil {
			t.Fatal(err)
		}
	}
	m.ClearOverride(a) // swap-delete must keep the other entries intact
	if got, want := pinned(), [3]uint64{stim[0], uint64(b) + 0x100, uint64(cin) + 0x100}; got != want {
		t.Fatalf("after clearing a: nets read %#x, want %#x", got, want)
	}
	if err := m.SetOverride(b, 7); err != nil {
		t.Fatal(err)
	}
	if got, want := pinned(), [3]uint64{stim[0], 7, uint64(cin) + 0x100}; got != want {
		t.Fatalf("re-SetOverride did not update the word: nets read %#x, want %#x", got, want)
	}
	if err := m.SetOverride(netlist.NetID(-1), 0); err == nil {
		t.Fatal("override of invalid net should fail")
	}
}

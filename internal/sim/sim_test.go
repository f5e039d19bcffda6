package sim

import (
	"math/rand"
	"testing"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
)

func fullAdder(t testing.TB) *netlist.Netlist {
	t.Helper()
	n := netlist.New("fa")
	a := n.AddPI("a")
	b := n.AddPI("b")
	cin := n.AddPI("cin")
	sum := n.AddNet("sum")
	cout := n.AddNet("cout")
	n.MustAddLUT("xor3", logic.XorN(3), []netlist.NetID{a, b, cin}, sum)
	n.MustAddLUT("maj3", logic.Maj3(), []netlist.NetID{a, b, cin}, cout)
	n.MarkPO(sum)
	n.MarkPO(cout)
	return n
}

// fullAdderOuts evaluates one cycle of a full-adder machine and returns
// its sum and carry words.
func fullAdderOuts(t testing.TB, m *Machine, a, b, cin uint64) (sum, cout uint64) {
	t.Helper()
	if err := m.BindNames([]string{"a", "b", "cin"}); err != nil {
		t.Fatal(err)
	}
	cols, err := m.POCols([]string{"sum", "cout"})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.RunTrace([][]uint64{{a, b, cin}})
	return tr.Out(0, cols[0]), tr.Out(0, cols[1])
}

func TestCombinationalFullAdder(t *testing.T) {
	m, err := Compile(fullAdder(t))
	if err != nil {
		t.Fatal(err)
	}
	// Drive all 8 input combinations in one word.
	var aw, bw, cw uint64
	for p := uint64(0); p < 8; p++ {
		if p&1 != 0 {
			aw |= 1 << p
		}
		if p&2 != 0 {
			bw |= 1 << p
		}
		if p&4 != 0 {
			cw |= 1 << p
		}
	}
	sum, cout := fullAdderOuts(t, m, aw, bw, cw)
	for p := uint64(0); p < 8; p++ {
		abits := int(p&1) + int(p>>1&1) + int(p>>2&1)
		wantSum := abits%2 == 1
		wantCout := abits >= 2
		if (sum&(1<<p) != 0) != wantSum {
			t.Fatalf("sum wrong at pattern %d", p)
		}
		if (cout&(1<<p) != 0) != wantCout {
			t.Fatalf("cout wrong at pattern %d", p)
		}
	}
}

func TestSequentialCounter(t *testing.T) {
	// 2-bit counter: q0' = ~q0 ; q1' = q1 ^ q0.
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
	if err := n.CheckDriven(); err != nil {
		t.Fatal(err)
	}
	m, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := m.POCols([]string{"q0", "q1"})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 2, 3, 0, 1, 2, 3}
	tr := m.RunTrace(make([][]uint64, len(want)))
	for cyc, w := range want {
		got := uint64(0)
		if tr.Out(cyc, cols[0])&1 != 0 {
			got |= 1
		}
		if tr.Out(cyc, cols[1])&1 != 0 {
			got |= 2
		}
		if got != w {
			t.Fatalf("cycle %d: got %d want %d", cyc, got, w)
		}
	}
}

func TestDFFInitValue(t *testing.T) {
	n := netlist.New("init")
	q := n.AddNet("q")
	d := n.AddNet("d")
	n.MustAddLUT("keep", logic.BufN(), []netlist.NetID{q}, d)
	n.MustAddDFF("ff", d, q, 1)
	n.MarkPO(q)
	m, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	out := m.RunTrace(make([][]uint64, 1)).Out(0, 0)
	if out != ^uint64(0) {
		t.Fatalf("init-1 DFF reads %x", out)
	}
	m.Reset()
	out = m.ResumeTraceInto(new(Trace), make([][]uint64, 1)).Out(0, 0)
	if out != ^uint64(0) {
		t.Fatalf("after reset reads %x", out)
	}
}

func TestNetProbe(t *testing.T) {
	n := fullAdder(t)
	m, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := n.NetByName("sum")
	if err := m.Probe(sum); err != nil {
		t.Fatal(err)
	}
	if w := m.RunTrace([][]uint64{{1, 1, 0}}).ProbeVal(0, 0); w&1 != 0 {
		t.Fatal("1+1 sum bit should be 0")
	}
	if err := m.Probe(netlist.NetID(len(n.Nets))); err == nil {
		t.Fatal("probe of missing net should fail")
	}
	if _, err := m.POCols([]string{"a"}); err == nil {
		t.Fatal("reading a non-PO as an output should fail")
	}
}

func TestSetPIErrors(t *testing.T) {
	m, err := Compile(fullAdder(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BindNames([]string{"sum"}); err == nil {
		t.Fatal("driving a non-PI should fail")
	}
	if err := m.BindNames([]string{"missing"}); err == nil {
		t.Fatal("driving a missing net should fail")
	}
}

func TestEquivalentDetectsDifference(t *testing.T) {
	a := fullAdder(t)
	b := fullAdder(t)
	// Same structure: must be equivalent.
	mm, err := Equivalent(a, b, 8, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if mm != nil {
		t.Fatalf("identical designs reported different: %v", mm)
	}
	// Corrupt one LUT bit in b.
	id, _ := b.CellByName("maj3")
	b.Cells[id].Func = logic.OrN(3) // wrong carry
	mm, err = Equivalent(a, b, 8, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if mm == nil {
		t.Fatal("corrupted design reported equivalent")
	}
	if mm.Output != "cout" {
		t.Fatalf("mismatch on %q, want cout", mm.Output)
	}
}

func TestEquivalentNameMismatch(t *testing.T) {
	a := fullAdder(t)
	n := netlist.New("other")
	n.AddPI("x")
	o := n.AddNet("o")
	pi, _ := n.NetByName("x")
	n.MustAddLUT("b", logic.BufN(), []netlist.NetID{pi}, o)
	n.MarkPO(o)
	if _, err := Equivalent(a, n, 2, 1, 1); err == nil {
		t.Fatal("PI name mismatch not reported")
	}
}

func TestExhaustiveEquivalent(t *testing.T) {
	a := fullAdder(t)
	b := fullAdder(t)
	mm, err := ExhaustiveEquivalent(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if mm != nil {
		t.Fatalf("unexpected mismatch: %v", mm)
	}
	id, _ := b.CellByName("xor3")
	b.Cells[id].Func = logic.XnorN(3)
	mm, err = ExhaustiveEquivalent(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if mm == nil {
		t.Fatal("exhaustive comparison missed a mutation")
	}
}

func TestSequentialEquivalentCatchesStateBug(t *testing.T) {
	mk := func(init uint8) *netlist.Netlist {
		n := netlist.New("toggler")
		en := n.AddPI("en")
		q := n.AddNet("q")
		d := n.AddNet("d")
		n.MustAddLUT("t", logic.XorN(2), []netlist.NetID{en, q}, d)
		n.MustAddDFF("ff", d, q, init)
		n.MarkPO(q)
		return n
	}
	a, b := mk(0), mk(0)
	mm, err := Equivalent(a, b, 4, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if mm != nil {
		t.Fatalf("unexpected mismatch: %v", mm)
	}
	c := mk(1) // wrong reset state
	mm, err = Equivalent(a, c, 4, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if mm == nil {
		t.Fatal("init-value bug not caught")
	}
}

func TestBitParallelMatchesScalar(t *testing.T) {
	// Cross-check: random 64-pattern word vs 64 scalar evaluations.
	n := fullAdder(t)
	m, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	aw, bw, cw := r.Uint64(), r.Uint64(), r.Uint64()
	sum, cout := fullAdderOuts(t, m, aw, bw, cw)
	for p := 0; p < 64; p++ {
		bitsSet := 0
		if aw&(1<<p) != 0 {
			bitsSet++
		}
		if bw&(1<<p) != 0 {
			bitsSet++
		}
		if cw&(1<<p) != 0 {
			bitsSet++
		}
		if (sum&(1<<p) != 0) != (bitsSet%2 == 1) {
			t.Fatalf("scalar cross-check failed at pattern %d", p)
		}
		if (cout&(1<<p) != 0) != (bitsSet >= 2) {
			t.Fatalf("cout cross-check failed at pattern %d", p)
		}
	}
}

func BenchmarkSimFullAdderChain(b *testing.B) {
	// A 256-bit ripple-carry adder exercises deep combinational logic.
	n := netlist.New("rca")
	carry := n.AddPI("cin")
	var pos []netlist.NetID
	for i := 0; i < 256; i++ {
		a := n.AddPI("")
		bb := n.AddPI("")
		sum := n.AddNet("")
		cout := n.AddNet("")
		n.MustAddLUT("", logic.XorN(3), []netlist.NetID{a, bb, carry}, sum)
		n.MustAddLUT("", logic.Maj3(), []netlist.NetID{a, bb, carry}, cout)
		pos = append(pos, sum)
		carry = cout
	}
	n.MarkPO(carry)
	for _, p := range pos {
		n.MarkPO(p)
	}
	m, err := Compile(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Eval()
	}
}

package pack

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/synth"
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

func TestPackFullAdder(t *testing.T) {
	p, err := Pack(fullAdder(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCLBs() != 1 {
		t.Fatalf("full adder should pack into 1 CLB, got %d", p.NumCLBs())
	}
	s := p.Stats()
	if s.LUTs != 2 || s.FFs != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPackRejectsWideLUT(t *testing.T) {
	n := netlist.New("w")
	fanin := make([]netlist.NetID, 5)
	for i := range fanin {
		fanin[i] = n.AddPI("")
	}
	out := n.AddNet("o")
	n.MustAddLUT("wide", logic.AndN(5), fanin, out)
	n.MarkPO(out)
	if _, err := Pack(n); err == nil {
		t.Fatal("5-input LUT accepted")
	}
}

func TestFFColocation(t *testing.T) {
	// Register file slice: each LUT feeds a DFF; FFs should sit with their
	// drivers.
	n := netlist.New("regs")
	en := n.AddPI("en")
	for i := 0; i < 8; i++ {
		d := n.AddPI("")
		g := n.AddNet("")
		q := n.AddNet("")
		n.MustAddLUT("", logic.AndN(2), []netlist.NetID{en, d}, g)
		n.MustAddDFF("", g, q, 0)
		n.MarkPO(q)
	}
	p, err := Pack(n)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.FFWithDriver != 8 {
		t.Fatalf("only %d/8 FFs co-located with drivers", s.FFWithDriver)
	}
	if p.NumCLBs() != 4 {
		t.Fatalf("8 LUT + 8 FF should fill 4 CLBs, got %d", p.NumCLBs())
	}
}

func TestFFOverflowToOtherCLB(t *testing.T) {
	// One LUT feeding 3 DFFs: only 2 fit beside it.
	n := netlist.New("ffo")
	a := n.AddPI("a")
	g := n.AddNet("g")
	n.MustAddLUT("l", logic.BufN(), []netlist.NetID{a}, g)
	for i := 0; i < 3; i++ {
		q := n.AddNet("")
		n.MustAddDFF("", g, q, 0)
		n.MarkPO(q)
	}
	p, err := Pack(n)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCLBs() != 2 {
		t.Fatalf("expected overflow into 2 CLBs, got %d", p.NumCLBs())
	}
}

func TestPairingPrefersSharedFanins(t *testing.T) {
	// Two disjoint pairs of LUTs; each pair shares both inputs. The pairs
	// must land in separate CLBs with perfect sharing.
	n := netlist.New("pairs")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	d := n.AddPI("d")
	o1 := n.AddNet("o1")
	o2 := n.AddNet("o2")
	o3 := n.AddNet("o3")
	o4 := n.AddNet("o4")
	l1 := n.MustAddLUT("l1", logic.AndN(2), []netlist.NetID{a, b}, o1)
	l3 := n.MustAddLUT("l3", logic.AndN(2), []netlist.NetID{c, d}, o3)
	l2 := n.MustAddLUT("l2", logic.OrN(2), []netlist.NetID{a, b}, o2)
	l4 := n.MustAddLUT("l4", logic.OrN(2), []netlist.NetID{c, d}, o4)
	for _, o := range []netlist.NetID{o1, o2, o3, o4} {
		n.MarkPO(o)
	}
	p, err := Pack(n)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCLBs() != 2 {
		t.Fatalf("CLBs = %d", p.NumCLBs())
	}
	if p.CellCLB[l1] != p.CellCLB[l2] || p.CellCLB[l3] != p.CellCLB[l4] {
		t.Fatal("shared-fanin pairs split across CLBs")
	}
}

// Property: packing any tech-mapped random netlist satisfies Check and
// covers all cells with ≥ half-full LUT slots on average (no pathological
// fragmentation).
func TestQuickPackInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(61))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl := netlist.New("q")
		var nets []netlist.NetID
		for i := 0; i < 5; i++ {
			nets = append(nets, nl.AddPI(""))
		}
		for i := 0; i < 10+r.Intn(30); i++ {
			k := 1 + r.Intn(6)
			if k > len(nets) {
				k = len(nets)
			}
			fanin := make([]netlist.NetID, k)
			for j := range fanin {
				fanin[j] = nets[r.Intn(len(nets))]
			}
			out := nl.AddNet("")
			if r.Intn(5) == 0 {
				nl.MustAddDFF("", fanin[0], out, 0)
			} else {
				nl.MustAddLUT("", logic.OrN(k), fanin, out)
			}
			nets = append(nets, out)
		}
		nl.MarkPO(nets[len(nets)-1])
		mapped, err := synth.TechMap(nl)
		if err != nil {
			return false
		}
		p, err := Pack(mapped)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		st := mapped.Stats()
		if st.LUTs == 0 {
			return true
		}
		// At least ceil(LUTs/2) CLBs, at most LUTs+DFFs.
		if p.NumCLBs() < (st.LUTs+1)/2 || p.NumCLBs() > st.LUTs+st.DFFs {
			return false
		}
		return p.Check() == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPackDeterminism(t *testing.T) {
	n1 := fullAdder(t)
	n2 := fullAdder(t)
	p1, err := Pack(n1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Pack(n2)
	if err != nil {
		t.Fatal(err)
	}
	if p1.NumCLBs() != p2.NumCLBs() {
		t.Fatal("packing not deterministic")
	}
}

func BenchmarkPack(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	nl := netlist.New("bench")
	var nets []netlist.NetID
	for i := 0; i < 16; i++ {
		nets = append(nets, nl.AddPI(""))
	}
	for i := 0; i < 2000; i++ {
		fanin := []netlist.NetID{nets[r.Intn(len(nets))], nets[r.Intn(len(nets))], nets[r.Intn(len(nets))]}
		out := nl.AddNet("")
		nl.MustAddLUT("", logic.Maj3(), fanin, out)
		nets = append(nets, out)
	}
	nl.MarkPO(nets[len(nets)-1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(nl); err != nil {
			b.Fatal(err)
		}
	}
}

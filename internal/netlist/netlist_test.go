package netlist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fpgadbg/internal/logic"
)

// buildFullAdder constructs a 1-bit full adder: sum = a^b^cin,
// cout = maj(a,b,cin).
func buildFullAdder(t testing.TB) (*Netlist, NetID, NetID) {
	t.Helper()
	n := New("fa")
	a := n.AddPI("a")
	b := n.AddPI("b")
	cin := n.AddPI("cin")
	sum := n.AddNet("sum")
	cout := n.AddNet("cout")
	n.MustAddLUT("xor3", logic.XorN(3), []NetID{a, b, cin}, sum)
	n.MustAddLUT("maj3", logic.Maj3(), []NetID{a, b, cin}, cout)
	n.MarkPO(sum)
	n.MarkPO(cout)
	if err := n.CheckDriven(); err != nil {
		t.Fatal(err)
	}
	return n, sum, cout
}

func TestBuildFullAdder(t *testing.T) {
	n, _, _ := buildFullAdder(t)
	s := n.Stats()
	if s.LUTs != 2 || s.DFFs != 0 || s.PIs != 3 || s.POs != 2 {
		t.Fatalf("stats: %v", s)
	}
	if s.Depth != 1 {
		t.Fatalf("depth = %d", s.Depth)
	}
}

func TestDuplicateNamesDisambiguated(t *testing.T) {
	n := New("dup")
	a := n.AddNet("x")
	b := n.AddNet("x")
	if n.Nets[a].Name == n.Nets[b].Name {
		t.Fatalf("duplicate net names: %q %q", n.Nets[a].Name, n.Nets[b].Name)
	}
	if !strings.HasPrefix(n.Nets[b].Name, "x$") {
		t.Fatalf("unexpected disambiguation %q", n.Nets[b].Name)
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleDriveRejected(t *testing.T) {
	n := New("dd")
	a := n.AddPI("a")
	out := n.AddNet("out")
	n.MustAddLUT("b1", logic.BufN(), []NetID{a}, out)
	if _, err := n.AddLUT("b2", logic.BufN(), []NetID{a}, out); err == nil {
		t.Fatal("double drive not rejected")
	}
}

func TestCoverWidthMismatchRejected(t *testing.T) {
	n := New("w")
	a := n.AddPI("a")
	out := n.AddNet("out")
	if _, err := n.AddLUT("bad", logic.XorN(2), []NetID{a}, out); err == nil {
		t.Fatal("width mismatch not rejected")
	}
}

func TestDFF(t *testing.T) {
	n := New("seq")
	d := n.AddPI("d")
	q := n.AddNet("q")
	n.MustAddDFF("ff", d, q, 1)
	n.MarkPO(q)
	if err := n.CheckDriven(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddDFF("bad", d, n.AddNet("q2"), 2); err == nil {
		t.Fatal("init=2 not rejected")
	}
	s := n.Stats()
	if s.DFFs != 1 {
		t.Fatalf("stats %v", s)
	}
}

func TestTopoOrderAndCycle(t *testing.T) {
	n := New("cyc")
	a := n.AddPI("a")
	x := n.AddNet("x")
	y := n.AddNet("y")
	n.MustAddLUT("g1", logic.AndN(2), []NetID{a, y}, x)
	n.MustAddLUT("g2", logic.BufN(), []NetID{x}, y)
	n.MarkPO(y)
	if _, err := n.TopoOrder(); err == nil {
		t.Fatal("combinational cycle not detected")
	}
	// Breaking the cycle with a DFF makes it legal.
	m := New("seqcyc")
	am := m.AddPI("a")
	xm := m.AddNet("x")
	ym := m.AddNet("y")
	m.MustAddLUT("g1", logic.AndN(2), []NetID{am, ym}, xm)
	m.MustAddDFF("ff", xm, ym, 0)
	m.MarkPO(ym)
	order, err := m.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("order %v", order)
	}
	// The LUT must come before the DFF.
	if m.Cells[order[0]].Kind != KindLUT || m.Cells[order[1]].Kind != KindDFF {
		t.Fatalf("order kinds wrong")
	}
}

func TestTopoRespectsDependencies(t *testing.T) {
	n := New("chain")
	a := n.AddPI("a")
	prev := a
	var ids []CellID
	for i := 0; i < 20; i++ {
		out := n.AddNet("")
		ids = append(ids, n.MustAddLUT("", logic.NotN(), []NetID{prev}, out))
		prev = out
	}
	n.MarkPO(prev)
	order, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[CellID]int)
	for i, id := range order {
		pos[id] = i
	}
	for i := 1; i < len(ids); i++ {
		if pos[ids[i-1]] >= pos[ids[i]] {
			t.Fatalf("chain out of order at %d", i)
		}
	}
	_, depth, err := n.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if depth != 20 {
		t.Fatalf("depth = %d", depth)
	}
}

// TestRemoveCellAndNet: removing a cell tombstones it and leaves its
// output net in place, undriven and still indexed.
func TestRemoveCellAndNet(t *testing.T) {
	n, sum, _ := buildFullAdder(t)
	id, ok := n.CellByName("xor3")
	if !ok {
		t.Fatal("xor3 missing")
	}
	if err := n.RemoveCell(id); err != nil {
		t.Fatal(err)
	}
	if n.Nets[sum].Driver != NilCell {
		t.Fatal("driver not cleared")
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.CellByName("xor3"); ok {
		t.Fatal("removed cell still indexed")
	}
	if got, ok := n.NetByName("sum"); !ok || got != sum {
		t.Fatal("removed cell's output net no longer indexed")
	}
}

func TestFanouts(t *testing.T) {
	n, _, _ := buildFullAdder(t)
	a, _ := n.NetByName("a")
	fan := n.Fanouts()
	if len(fan[a]) != 2 {
		t.Fatalf("a fanout = %d", len(fan[a]))
	}
}

func TestSetFanin(t *testing.T) {
	n, _, _ := buildFullAdder(t)
	id, _ := n.CellByName("xor3")
	b, _ := n.NetByName("b")
	if err := n.SetFanin(id, 2, b); err != nil {
		t.Fatal(err)
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	if err := n.SetFanin(id, 9, b); err == nil {
		t.Fatal("bad pin accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	n, _, _ := buildFullAdder(t)
	c := n.Clone()
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not affect the original.
	id, _ := c.CellByName("xor3")
	c.Cells[id].Func.Cubes[0] = logic.Cube{}
	a, _ := c.NetByName("a")
	b, _ := c.NetByName("b")
	_ = c.SetFanin(id, 0, b)
	_ = a
	orig, _ := n.CellByName("xor3")
	if n.Cells[orig].Func.Cubes[0] == (logic.Cube{}) {
		t.Fatal("clone shares cover storage")
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCompact(t *testing.T) {
	n, _, _ := buildFullAdder(t)
	id, _ := n.CellByName("maj3")
	cout, _ := n.NetByName("cout")
	if err := n.RemoveCell(id); err != nil {
		t.Fatal(err)
	}
	// Drop dangling PO before compaction to keep CheckDriven happy.
	for i, po := range n.POs {
		if po == cout {
			n.POs = append(n.POs[:i], n.POs[i+1:]...)
			break
		}
	}
	out, cellMap, netMap := n.Compact()
	if err := out.CheckDriven(); err != nil {
		t.Fatal(err)
	}
	if out.NumLiveCells() != 1 || len(out.Nets) != 5 {
		t.Fatalf("compacted sizes: %d cells %d nets", out.NumLiveCells(), len(out.Nets))
	}
	if cellMap[id] != NilCell {
		t.Fatal("dead cell must map to nil")
	}
	if out.NetName(netMap[cout]) != "cout" {
		t.Fatal("the removed cell's output net must survive compaction")
	}
	if len(out.PIs) != 3 || len(out.POs) != 1 {
		t.Fatalf("pi/po counts %d/%d", len(out.PIs), len(out.POs))
	}
}

func TestSweepDead(t *testing.T) {
	n := New("sweep")
	a := n.AddPI("a")
	used := n.AddNet("used")
	unused := n.AddNet("unused")
	mid := n.AddNet("mid")
	n.MustAddLUT("keep", logic.BufN(), []NetID{a}, used)
	n.MustAddLUT("deadmid", logic.NotN(), []NetID{a}, mid)
	n.MustAddLUT("deadend", logic.NotN(), []NetID{mid}, unused)
	n.MarkPO(used)
	removed := n.SweepDead()
	if removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	if n.NumLiveCells() != 1 {
		t.Fatalf("live cells %d", n.NumLiveCells())
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTransitiveCones(t *testing.T) {
	n := New("cone")
	a := n.AddPI("a")
	b := n.AddPI("b")
	x := n.AddNet("x")
	q := n.AddNet("q")
	y := n.AddNet("y")
	g1 := n.MustAddLUT("g1", logic.AndN(2), []NetID{a, b}, x)
	ff := n.MustAddDFF("ff", x, q, 0)
	g2 := n.MustAddLUT("g2", logic.NotN(), []NetID{q}, y)
	n.MarkPO(y)

	fin := n.TransitiveFanin([]NetID{y}, false)
	if !fin[g2] || !fin[ff] || fin[g1] {
		t.Fatalf("fanin (no through): %v", fin)
	}
	finT := n.TransitiveFanin([]NetID{y}, true)
	if !finT[g1] || !finT[ff] || !finT[g2] {
		t.Fatalf("fanin (through): %v", finT)
	}
}

// randomDAG builds a random acyclic netlist for property tests.
func randomDAG(r *rand.Rand) *Netlist {
	n := New("rand")
	nets := []NetID{}
	for i := 0; i < 3+r.Intn(5); i++ {
		nets = append(nets, n.AddPI(""))
	}
	cells := 5 + r.Intn(30)
	for i := 0; i < cells; i++ {
		k := 1 + r.Intn(4)
		if k > len(nets) {
			k = len(nets)
		}
		fanin := make([]NetID, k)
		for j := range fanin {
			fanin[j] = nets[r.Intn(len(nets))]
		}
		out := n.AddNet("")
		if r.Intn(6) == 0 {
			n.MustAddDFF("", fanin[0], out, uint8(r.Intn(2)))
		} else {
			cov := logic.Cover{N: k}
			for c := 0; c < 1+r.Intn(3); c++ {
				var cu logic.Cube
				for v := 0; v < k; v++ {
					switch r.Intn(3) {
					case 0:
						cu = cu.WithLit(v, false)
					case 1:
						cu = cu.WithLit(v, true)
					}
				}
				cov.Cubes = append(cov.Cubes, cu)
			}
			n.MustAddLUT("", cov, fanin, out)
		}
		nets = append(nets, out)
	}
	n.MarkPO(nets[len(nets)-1])
	return n
}

// Property: random DAG netlists always pass Check, have a valid topo
// order, and Clone+Check round-trips.
func TestQuickRandomNetlists(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomDAG(r)
		if err := n.CheckDriven(); err != nil {
			t.Logf("check: %v", err)
			return false
		}
		order, err := n.TopoOrder()
		if err != nil {
			return false
		}
		if len(order) != n.NumLiveCells() {
			return false
		}
		// Every LUT's fanin drivers (LUTs) precede it.
		pos := make(map[CellID]int)
		for i, id := range order {
			pos[id] = i
		}
		for _, id := range order {
			c := &n.Cells[id]
			if c.Kind != KindLUT {
				continue
			}
			for _, f := range c.Fanin {
				d := n.Nets[f].Driver
				if d != NilCell && n.Cells[d].Kind == KindLUT && pos[d] >= pos[id] {
					return false
				}
			}
		}
		cl := n.Clone()
		return cl.Check() == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Compact preserves live structure counts and passes Check.
func TestQuickCompact(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomDAG(r)
		n.SweepDead()
		out, _, _ := n.Compact()
		if out.Check() != nil {
			return false
		}
		return out.NumLiveCells() == n.NumLiveCells() && len(out.Nets) == len(n.Nets) &&
			len(out.PIs) == len(n.PIs) && len(out.POs) == len(n.POs)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTopoOrder(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	n := New("bench")
	nets := []NetID{}
	for i := 0; i < 8; i++ {
		nets = append(nets, n.AddPI(""))
	}
	for i := 0; i < 5000; i++ {
		fanin := []NetID{nets[r.Intn(len(nets))], nets[r.Intn(len(nets))]}
		out := n.AddNet("")
		n.MustAddLUT("", logic.AndN(2), fanin, out)
		nets = append(nets, out)
	}
	n.MarkPO(nets[len(nets)-1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.TopoOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

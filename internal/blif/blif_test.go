package blif

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
)

const adderBLIF = `
# 1-bit full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
`

func TestParseFullAdder(t *testing.T) {
	nl, err := ParseString(adderBLIF)
	if err != nil {
		t.Fatal(err)
	}
	s := nl.Stats()
	if s.LUTs != 2 || s.PIs != 3 || s.POs != 2 {
		t.Fatalf("stats %v", s)
	}
	if err := nl.CheckDriven(); err != nil {
		t.Fatal(err)
	}
	m, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BindNames([]string{"a", "b", "cin"}); err != nil {
		t.Fatal(err)
	}
	cols, err := m.POCols([]string{"sum", "cout"})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.RunTrace([][]uint64{{1, 1, 1}})
	if sum, cout := tr.Out(0, cols[0]), tr.Out(0, cols[1]); sum&1 != 1 || cout&1 != 1 {
		t.Fatalf("1+1+1 gave sum=%d cout=%d", sum&1, cout&1)
	}
}

func TestParseLatchForms(t *testing.T) {
	src := `
.model seq
.inputs d
.outputs q0 q1 q2 q3
.latch d q0
.latch d q1 1
.latch d q2 re clk 0
.latch d q3 re clk
.end
`
	nl, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	s := nl.Stats()
	if s.DFFs != 4 {
		t.Fatalf("DFFs = %d", s.DFFs)
	}
	id, ok := nl.CellByName("latch_q1")
	if !ok || nl.Cells[id].Init != 1 {
		t.Fatal("latch init 1 not parsed")
	}
}

func TestParseConstants(t *testing.T) {
	src := `
.model consts
.inputs a
.outputs one zero viaa
.names one
1
.names zero
.names a viaa
1 1
.end
`
	nl, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BindNames([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	cols, err := m.POCols([]string{"one", "zero", "viaa"})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.RunTrace([][]uint64{{^uint64(0)}})
	one, zero, viaa := tr.Out(0, cols[0]), tr.Out(0, cols[1]), tr.Out(0, cols[2])
	if one != ^uint64(0) || zero != 0 || viaa != ^uint64(0) {
		t.Fatalf("constants wrong: one=%#x zero=%#x viaa=%#x", one, zero, viaa)
	}
}

func TestParseOffsetPhase(t *testing.T) {
	// f defined by its off-set: f=0 exactly when a=1,b=1 → f = NAND.
	src := `
.model offs
.inputs a b
.outputs f
.names a b f
11 0
.end
`
	nl, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := sim.Compile(nl)
	var aw, bw uint64
	for p := uint64(0); p < 4; p++ {
		if p&1 != 0 {
			aw |= 1 << p
		}
		if p&2 != 0 {
			bw |= 1 << p
		}
	}
	if err := m.BindNames([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	cols, err := m.POCols([]string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	f := m.RunTrace([][]uint64{{aw, bw}}).Out(0, cols[0])
	for p := uint64(0); p < 4; p++ {
		want := !(p&1 != 0 && p&2 != 0)
		if (f&(1<<p) != 0) != want {
			t.Fatalf("NAND wrong at %b", p)
		}
	}
}

func TestParseContinuationAndComments(t *testing.T) {
	src := ".model c\n.inputs a \\\nb\n.outputs f # trailing comment\n.names a b f\n11 1\n.end\n"
	nl, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.PIs) != 2 {
		t.Fatalf("PIs = %d", len(nl.PIs))
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no model":        ".inputs a\n",
		"two models":      ".model a\n.model b\n",
		"phase mix":       ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n",
		"bad row width":   ".model m\n.inputs a b\n.outputs f\n.names a b f\n111 1\n.end\n",
		"bad output bit":  ".model m\n.inputs a\n.outputs f\n.names a f\n1 x\n.end\n",
		"stray token":     ".model m\n.inputs a\n.outputs a\nfoo bar\n.end\n",
		"double drive":    ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end\n",
		"exdc":            ".model m\n.inputs a\n.outputs a\n.exdc\n.end\n",
		"bad latch init":  ".model m\n.inputs d\n.outputs q\n.latch d q x\n.end\n",
		"short latch":     ".model m\n.inputs d\n.outputs q\n.latch d\n.end\n",
		"names no signal": ".model m\n.inputs a\n.outputs a\n.names\n.end\n",
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestUnknownDirectivesIgnored(t *testing.T) {
	src := ".model m\n.clock clk\n.inputs a\n.outputs f\n.default_input_arrival 0 0\n.names a f\n1 1\n.end\n"
	if _, err := ParseString(src); err != nil {
		t.Fatal(err)
	}
}

// buildRandom constructs a random netlist, writes it to BLIF, parses it
// back, and checks simulation equivalence.
func roundtrip(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nl := netlist.New("rt")
	var nets []netlist.NetID
	for i := 0; i < 4+r.Intn(4); i++ {
		nets = append(nets, nl.AddPI(""))
	}
	for i := 0; i < 10+r.Intn(40); i++ {
		k := 1 + r.Intn(4)
		fanin := make([]netlist.NetID, k)
		for j := range fanin {
			fanin[j] = nets[r.Intn(len(nets))]
		}
		out := nl.AddNet("")
		if r.Intn(5) == 0 {
			nl.MustAddDFF("", fanin[0], out, uint8(r.Intn(2)))
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
			nl.MustAddLUT("", cov, fanin, out)
		}
		nets = append(nets, out)
	}
	for i := 0; i < 3; i++ {
		nl.MarkPO(nets[len(nets)-1-i])
	}
	if err := nl.CheckDriven(); err != nil {
		t.Fatal(err)
	}
	text, err := ToString(nl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("parse-back: %v\n%s", err, text)
	}
	if err := back.CheckDriven(); err != nil {
		t.Fatal(err)
	}
	mm, err := sim.Equivalent(nl, back, 8, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	if mm != nil {
		t.Fatalf("roundtrip not equivalent: %v\n%s", mm, text)
	}
}

func TestRoundtripEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		roundtrip(t, seed)
	}
}

// Property: writer output always re-parses with identical statistics.
func TestQuickRoundtripStats(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl := netlist.New("q")
		var nets []netlist.NetID
		for i := 0; i < 3; i++ {
			nets = append(nets, nl.AddPI(""))
		}
		for i := 0; i < 5+r.Intn(15); i++ {
			k := 1 + r.Intn(3)
			fanin := make([]netlist.NetID, k)
			for j := range fanin {
				fanin[j] = nets[r.Intn(len(nets))]
			}
			out := nl.AddNet("")
			nl.MustAddLUT("", logic.OrN(k), fanin, out)
			nets = append(nets, out)
		}
		nl.MarkPO(nets[len(nets)-1])
		text, err := ToString(nl)
		if err != nil {
			return false
		}
		back, err := ParseString(text)
		if err != nil {
			return false
		}
		a, b := nl.Stats(), back.Stats()
		return a.LUTs == b.LUTs && a.DFFs == b.DFFs && a.PIs == b.PIs && a.POs == b.POs
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSanitize(t *testing.T) {
	nl := netlist.New("s")
	weird := nl.AddPI("a b#c")
	out := nl.AddNet("ok")
	nl.MustAddLUT("", logic.BufN(), []netlist.NetID{weird}, out)
	nl.MarkPO(out)
	text, err := ToString(nl)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "a b#c") {
		t.Fatal("unsanitized name leaked into BLIF")
	}
	if _, err := ParseString(text); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(adderBLIF); err != nil {
			b.Fatal(err)
		}
	}
}

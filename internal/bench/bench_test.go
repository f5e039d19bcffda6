package bench

import (
	"math/bits"
	"testing"

	"fpgadbg/internal/pack"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
)

func TestCatalogBuildsAndMaps(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog mapping is slow")
	}
	for _, d := range Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			nl := d.Build()
			if err := nl.CheckDriven(); err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
			mapped, err := synth.TechMap(nl)
			if err != nil {
				t.Fatalf("%s: map: %v", d.Name, err)
			}
			p, err := pack.Pack(mapped)
			if err != nil {
				t.Fatalf("%s: pack: %v", d.Name, err)
			}
			st := nl.Stats()
			if (st.DFFs > 0) != d.Sequential {
				t.Fatalf("%s: sequential flag wrong (stats %v)", d.Name, st)
			}
			clbs := p.NumCLBs()
			t.Logf("%s: %v -> %d CLBs (paper: %d)", d.Name, mapped.Stats(), clbs, d.PaperCLBs)
			// The stand-ins must land in the right size class: within 3x
			// either way of the paper's count.
			if clbs*3 < d.PaperCLBs || clbs > d.PaperCLBs*3 {
				t.Errorf("%s: %d CLBs too far from paper's %d", d.Name, clbs, d.PaperCLBs)
			}
			// Mapping must preserve behaviour on random stimulus.
			mm, err := sim.Equivalent(nl, mapped, 4, 4, 99)
			if err != nil {
				t.Fatal(err)
			}
			if mm != nil {
				t.Fatalf("%s: mapping changed behaviour: %v", d.Name, mm)
			}
		})
	}
}

// replay drives m through the clocked input sequence ins (primary input
// name → word; inputs a map omits are held at zero) and returns a reader
// of the primary output words by cycle and name.
func replay(t *testing.T, m *sim.Machine, ins ...map[string]uint64) func(cycle int, po string) uint64 {
	t.Helper()
	pis := m.PIOrder()
	stim := make([][]uint64, len(ins))
	for c, in := range ins {
		for name := range in {
			if _, err := m.Slot(name); err != nil {
				t.Fatal(err)
			}
		}
		row := make([]uint64, len(pis))
		for j, name := range pis {
			row[j] = in[name]
		}
		stim[c] = row
	}
	if err := m.BindNames(pis); err != nil {
		t.Fatal(err)
	}
	tr := m.RunTrace(stim)
	return func(cycle int, po string) uint64 {
		t.Helper()
		cols, err := m.POCols([]string{po})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Out(cycle, cols[0])
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("9sym"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestNineSymExactFunction(t *testing.T) {
	nl := NineSym()
	m, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	// Drive all 512 assignments in 8 words of 64.
	var ins []map[string]uint64
	for base := uint64(0); base < 512; base += 64 {
		in := make(map[string]uint64)
		for i := 0; i < 9; i++ {
			var w uint64
			for p := uint64(0); p < 64; p++ {
				if (base+p)&(1<<i) != 0 {
					w |= 1 << p
				}
			}
			in[nl.Nets[nl.PIs[i]].Name] = w
		}
		ins = append(ins, in)
	}
	out := replay(t, m, ins...)
	po := nl.Nets[nl.POs[0]].Name
	for base := uint64(0); base < 512; base += 64 {
		for p := uint64(0); p < 64; p++ {
			ones := bits.OnesCount64(base + p)
			want := ones >= 3 && ones <= 6
			if (out(int(base/64), po)&(1<<p) != 0) != want {
				t.Fatalf("9sym wrong at assignment %d", base+p)
			}
		}
	}
}

func TestC499CorrectsSingleErrors(t *testing.T) {
	nl := C499()
	m, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	// Encode a word: data plus matching check bits so the syndrome is 0;
	// then flip data bit 13 and expect the output to correct it.
	data := uint64(0xdeadbeef)
	var check uint64
	for j := 0; j < 8; j++ {
		par := uint64(0)
		for i := 0; i < 32; i++ {
			if (uint(i+1)>>uint(j))&1 == 1 && (data>>uint(i))&1 == 1 {
				par ^= 1
			}
		}
		check |= par << uint(j)
	}
	run := func(d, c uint64, en bool) uint64 {
		in := make(map[string]uint64)
		for i := 0; i < 32; i++ {
			in["d"+itoa(i)] = -((d >> uint(i)) & 1) // all-ones or all-zeros word
		}
		for j := 0; j < 8; j++ {
			in["c"+itoa(j)] = -((c >> uint(j)) & 1)
		}
		if en {
			in["en"] = ^uint64(0)
		} else {
			in["en"] = 0
		}
		out := replay(t, m, in)
		var v uint64
		for i := 0; i < 32; i++ {
			// POs are in order fix0..fix31 of creation; read via PO list.
			if out(0, nl.Nets[nl.POs[i]].Name)&1 != 0 {
				v |= 1 << uint(i)
			}
		}
		return v
	}
	if got := run(data, check, true); got != data {
		t.Fatalf("clean word corrupted: %x != %x", got, data)
	}
	corrupted := data ^ (1 << 13)
	if got := run(corrupted, check, true); got != data {
		t.Fatalf("single error not corrected: %x != %x", got, data)
	}
	if got := run(corrupted, check, false); got != corrupted {
		t.Fatalf("disabled corrector altered data: %x != %x", got, corrupted)
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestC880ALUOps(t *testing.T) {
	nl := C880()
	m, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	run := func(a, b uint64, cin bool, op uint64) uint64 {
		in := make(map[string]uint64)
		for i := 0; i < 8; i++ {
			in["a"+itoa(i)] = -((a >> uint(i)) & 1)
			in["b"+itoa(i)] = -((b >> uint(i)) & 1)
		}
		for i := 0; i < 3; i++ {
			in["op"+itoa(i)] = -((op >> uint(i)) & 1)
		}
		if cin {
			in["cin"] = ^uint64(0)
		} else {
			in["cin"] = 0
		}
		out := replay(t, m, in)
		var v uint64
		for i := 0; i < 8; i++ {
			if out(0, nl.Nets[nl.POs[i]].Name)&1 != 0 {
				v |= 1 << uint(i)
			}
		}
		return v
	}
	cases := []struct {
		a, b uint64
		op   uint64
		want uint64
	}{
		{0x35, 0x4a, 0, (0x35 + 0x4a) & 0xff}, // add
		{0x90, 0x0f, 1, (0x90 - 0x0f) & 0xff}, // sub
		{0xf0, 0x3c, 2, 0xf0 & 0x3c},          // and
		{0xf0, 0x3c, 3, 0xf0 | 0x3c},          // or
		{0xf0, 0x3c, 4, 0xf0 ^ 0x3c},          // xor
		{0xf0, 0x3c, 5, (^(0xf0 | 0x3c)) & 0xff},
		{0x41, 0x00, 6, 0x82}, // shl
		{0x5a, 0xff, 7, 0x5a}, // pass
	}
	for _, tc := range cases {
		if got := run(tc.a, tc.b, false, tc.op); got != tc.want {
			t.Errorf("op %d: %02x ? %02x = %02x, want %02x", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestFSMsAreDeterministicAndAlive(t *testing.T) {
	for _, d := range []Info{{Name: "styr", Build: Styr}, {Name: "sand", Build: Sand}, {Name: "planet1", Build: Planet1}} {
		a := d.Build()
		b := d.Build()
		if a.Stats() != b.Stats() {
			t.Fatalf("%s: generator not deterministic", d.Name)
		}
		// The FSM must actually move: outputs change over a random run.
		m, err := sim.Compile(a)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		in := make(map[string]uint64)
		for _, pi := range a.PIs {
			in[a.Nets[pi].Name] = 0xAAAA5555CCCC3333
		}
		ins := make([]map[string]uint64, 16)
		for cyc := range ins {
			ins[cyc] = in
		}
		out := replay(t, m, ins...)
		for cyc := range ins {
			key := ""
			for _, po := range a.POs {
				if out(cyc, a.Nets[po].Name)&1 != 0 {
					key += "1"
				} else {
					key += "0"
				}
			}
			seen[key] = true
		}
		if len(seen) < 2 {
			t.Fatalf("%s: outputs never changed over 16 cycles", d.Name)
		}
	}
}

func TestMIPSExecutesAdd(t *testing.T) {
	nl := MIPS()
	m, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	// All registers start at 0; an add producing 0 keeps outputs 0; the
	// PC must advance each cycle with run=1, then freeze with run=0.
	run := map[string]uint64{"run": ^uint64(0)}
	halt := map[string]uint64{"run": 0}
	out := replay(t, m, run, run, run, halt, halt)
	pcNames := []string{}
	for _, po := range nl.POs {
		name := nl.Nets[po].Name
		if len(name) >= 7 && name[:7] == "mips/pc" {
			pcNames = append(pcNames, name)
		}
	}
	if len(pcNames) == 0 {
		t.Fatal("no PC outputs found")
	}
	read := func(cycle int) uint64 {
		var v uint64
		for i, n := range pcNames {
			if out(cycle, n)&1 != 0 {
				v |= 1 << uint(i)
			}
		}
		return v
	}
	pc0, pc1, pc2 := read(0), read(1), read(2)
	if pc1 != pc0+1 || pc2 != pc1+1 {
		t.Fatalf("PC not incrementing: %d %d %d", pc0, pc1, pc2)
	}
	pc3, pc4 := read(3), read(4)
	if pc4 != pc3 {
		t.Fatalf("PC moved while halted: %d -> %d", pc3, pc4)
	}
}

func TestDESIsPermutationish(t *testing.T) {
	// A Feistel network is a bijection: two different inputs give two
	// different outputs, and every output bit depends on inputs.
	nl := DES()
	m, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) string {
		in := make(map[string]uint64)
		for _, pi := range nl.PIs {
			seed = seed*6364136223846793005 + 1442695040888963407
			in[nl.Nets[pi].Name] = seed
		}
		out := replay(t, m, in)
		s := ""
		for _, po := range nl.POs {
			if out(0, nl.Nets[po].Name)&1 != 0 {
				s += "1"
			} else {
				s += "0"
			}
		}
		return s
	}
	a, b, c := run(1), run(2), run(1)
	if a != c {
		t.Fatal("DES not deterministic")
	}
	if a == b {
		t.Fatal("different inputs gave identical outputs")
	}
}

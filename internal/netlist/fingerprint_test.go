package netlist

import (
	"testing"

	"fpgadbg/internal/logic"
)

func fpTestDesign() *Netlist {
	nl := New("fp")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	x := nl.AddNet("x")
	q := nl.AddNet("q")
	nl.MustAddLUT("and", logic.AndN(2), []NetID{a, b}, x)
	nl.MustAddDFF("ff", x, q, 0)
	nl.MarkPO(q)
	return nl
}

func TestFingerprintStable(t *testing.T) {
	a := fpTestDesign()
	b := fpTestDesign()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("identical construction hashed differently: %s vs %s",
			a.Fingerprint(), b.Fingerprint())
	}
	if got := a.Clone().Fingerprint(); got != a.Fingerprint() {
		t.Fatalf("clone changed fingerprint: %s vs %s", got, a.Fingerprint())
	}
	// Repeated calls are stable.
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint is not deterministic across calls")
	}
}

func TestFingerprintSensitive(t *testing.T) {
	base := fpTestDesign().Fingerprint()
	mutations := map[string]func(nl *Netlist){
		"function": func(nl *Netlist) {
			id, _ := nl.CellByName("and")
			nl.Cells[id].Func = logic.OrN(2)
		},
		"init": func(nl *Netlist) {
			id, _ := nl.CellByName("ff")
			nl.Cells[id].Init = 1
		},
		"wiring": func(nl *Netlist) {
			id, _ := nl.CellByName("and")
			b, _ := nl.NetByName("b")
			if err := nl.SetFanin(id, 0, b); err != nil {
				panic(err)
			}
		},
		"new cell": func(nl *Netlist) {
			a, _ := nl.NetByName("a")
			nl.MustAddLUT("inv", logic.NotN(), []NetID{a}, nl.AddNet("y"))
		},
	}
	for name, mutate := range mutations {
		nl := fpTestDesign()
		mutate(nl)
		if nl.Fingerprint() == base {
			t.Errorf("%s mutation did not change the fingerprint", name)
		}
	}
}

func TestFingerprintIgnoresTombstones(t *testing.T) {
	nl := fpTestDesign()
	a, _ := nl.NetByName("a")
	extraOut := nl.AddNet("extra_out")
	extra := nl.MustAddLUT("extra", logic.NotN(), []NetID{a}, extraOut)
	withExtra := nl.Fingerprint()
	if err := nl.RemoveCell(extra); err != nil {
		t.Fatal(err)
	}
	if got := nl.Fingerprint(); got != fpTestDesign().Fingerprint() {
		t.Fatalf("tombstoned cell still contributes: %s", got)
	}
	if withExtra == fpTestDesign().Fingerprint() {
		t.Fatal("live extra cell did not contribute")
	}
}

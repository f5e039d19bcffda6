package sim

import (
	"reflect"
	"sync"
	"testing"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/testgen"
)

// forkDesign is a small sequential circuit: a toggling counter bit gated
// by an enable, plus a combinational output.
func forkDesign(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("fork")
	en := nl.AddPI("en")
	d := nl.AddPI("d")
	q := nl.AddNet("q")
	x := nl.AddNet("x")
	o := nl.AddNet("o")
	nl.MustAddLUT("next", logic.XorN(2), []netlist.NetID{en, q}, x)
	nl.MustAddDFF("ff", x, q, 0)
	nl.MustAddLUT("out", logic.AndN(2), []netlist.NetID{d, q}, o)
	nl.MarkPO(o)
	if err := nl.CheckDriven(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestForkMatchesParent(t *testing.T) {
	nl := forkDesign(t)
	parent, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	stim := testgen.RandomBlocks(2, 32, 7)
	want := parent.RunTrace(stim)

	fork := parent.Fork()
	got := fork.RunTrace(stim)
	if got.Cycles != want.Cycles || got.NumPOs != want.NumPOs {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.Cycles, got.NumPOs, want.Cycles, want.NumPOs)
	}
	for i := range want.Outs {
		if got.Outs[i] != want.Outs[i] {
			t.Fatalf("output word %d differs: %#x vs %#x", i, got.Outs[i], want.Outs[i])
		}
	}
}

func TestForkIsolation(t *testing.T) {
	nl := forkDesign(t)
	parent, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	f1 := parent.Fork()
	f2 := parent.Fork()

	// Configure f1 aggressively: probes, overrides, a partial binding.
	q, _ := nl.NetByName("q")
	if err := f1.Probe(q); err != nil {
		t.Fatal(err)
	}
	if err := f1.SetOverride(q, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if err := f1.BindNames([]string{"d"}); err != nil {
		t.Fatal(err)
	}
	f1.RunTrace(testgen.RandomBlocks(1, 8, 1))

	// f2 must behave exactly like a fresh compile.
	fresh, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	stim := testgen.RandomBlocks(2, 16, 3)
	want := fresh.RunTrace(stim)
	got := f2.RunTrace(stim)
	for i := range want.Outs {
		if got.Outs[i] != want.Outs[i] {
			t.Fatalf("fork polluted by sibling state at word %d", i)
		}
	}
}

func TestForkConcurrent(t *testing.T) {
	nl := forkDesign(t)
	parent, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	stim := testgen.RandomBlocks(2, 64, 11)
	want := parent.Fork().RunTrace(stim)

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]bool, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := parent.Fork().RunTrace(stim)
			for i := range want.Outs {
				if tr.Outs[i] != want.Outs[i] {
					errs[w] = true
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, bad := range errs {
		if bad {
			t.Fatalf("concurrent fork %d diverged", w)
		}
	}
}

// TestMemoryFootprintNodeSize pins the per-node charge MemoryFootprint
// bills the artifact cache to the compiled node's real size.
func TestMemoryFootprintNodeSize(t *testing.T) {
	if got := reflect.TypeOf(node{}).Size(); got != nodeBytes {
		t.Fatalf("node is %d bytes, MemoryFootprint charges %d", got, nodeBytes)
	}
}

package sim

// Wide-lane regression: the width-W vector engine against the width-1
// engine (itself pinned bit-identical to the ReferenceMachine oracle by
// regress_test.go). Lane word w of a wide replay must reproduce, bit for
// bit, a narrow replay of that word's stimulus — on every width dispatch,
// and with faults, patches and overrides on lanes beyond the first word.

import (
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/testgen"
)

// narrowWord extracts lane word w of a wide stimulus as narrow rows.
func narrowWord(wide [][]uint64, cols, W, w int) [][]uint64 {
	out := make([][]uint64, len(wide))
	for c, row := range wide {
		nr := make([]uint64, cols)
		for j := 0; j < cols; j++ {
			nr[j] = row[j*W+w]
		}
		out[c] = nr
	}
	return out
}

// TestWideIdentityOnCatalog replays every catalog design at
// W ∈ {1, 2, 3, 4, 8} on wide stimulus and checks each lane word against
// an independent width-1 replay of that word's patterns — PO and DFF-state
// streams both. The widths cover every dispatch in Eval: W=1 pins the
// vector engine to the classic single-word layout, W=2 and W=3 run the
// hooked pass with no hook armed, W=4 and W=8 the block kernels at one
// and two blocks per net.
func TestWideIdentityOnCatalog(t *testing.T) {
	const cycles = 10
	for _, d := range bench.Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			nl := d.Build()
			pis := nl.SortedPINames()
			narrow, err := Compile(nl)
			if err != nil {
				t.Fatal(err)
			}
			narrow.CaptureState(true)
			for _, W := range []int{1, 2, 3, 4, 8} {
				wideStim := testgen.RandomBlocks(len(pis)*W, cycles, int64(0xBEEF+W))
				m, err := CompileWidth(nl, W)
				if err != nil {
					t.Fatal(err)
				}
				if m.Width() != W || m.Lanes() != 64*W {
					t.Fatalf("W=%d: Width()=%d Lanes()=%d", W, m.Width(), m.Lanes())
				}
				m.CaptureState(true)
				tw := m.RunTrace(wideStim)
				if tw.Width != W {
					t.Fatalf("trace width %d, want %d", tw.Width, W)
				}
				for w := 0; w < W; w++ {
					tn := narrow.RunTrace(narrowWord(wideStim, len(pis), W, w))
					for c := 0; c < cycles; c++ {
						for po := 0; po < tw.NumPOs; po++ {
							if tw.OutW(c, po, w) != tn.Out(c, po) {
								t.Fatalf("W=%d word %d cycle %d PO %d: wide %#x narrow %#x",
									W, w, c, po, tw.OutW(c, po, w), tn.Out(c, po))
							}
						}
						for i := 0; i < tw.NumState; i++ {
							if tw.StateW(c, i, w) != tn.State(c, i) {
								t.Fatalf("W=%d word %d cycle %d DFF %d: wide %#x narrow %#x",
									W, w, c, i, tw.StateW(c, i, w), tn.State(c, i))
							}
						}
					}
				}
			}
		})
	}
}

// TestWideNarrowRowBroadcast checks the narrow-row convention on a wide
// machine: rows of at most len(bound) words drive every lane word with
// the same stimulus, so all W words of every output are equal — the
// shape serial oracles and broadcast fault campaigns rely on.
func TestWideNarrowRowBroadcast(t *testing.T) {
	nl := bench.Catalog()[0].Build()
	pis := nl.SortedPINames()
	const W = 4
	m, err := CompileWidth(nl, W)
	if err != nil {
		t.Fatal(err)
	}
	stim := testgen.RandomBlocks(len(pis), 6, 99)
	tr := m.RunTrace(stim)
	for c := 0; c < tr.Cycles; c++ {
		for po := 0; po < tr.NumPOs; po++ {
			w0 := tr.OutW(c, po, 0)
			if tr.Out(c, po) != w0 {
				t.Fatalf("Out != OutW(...,0)")
			}
			for w := 1; w < W; w++ {
				if tr.OutW(c, po, w) != w0 {
					t.Fatalf("cycle %d PO %d word %d: %#x != broadcast %#x",
						c, po, w, tr.OutW(c, po, w), w0)
				}
			}
		}
	}
}

// TestWideLaneFaultsBeyondWord0 arms the fault set of the classic
// lane-fault test on lanes ≥ 64 of a width-4 machine and checks each
// against a width-1 machine carrying the same fault on the corresponding
// in-word lane, under broadcast stimulus.
func TestWideLaneFaultsBeyondWord0(t *testing.T) {
	nl := laneTestNetlist(t)
	const W = 4
	wide, err := CompileWidth(nl, W)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	stim := testgen.Repeat(testgen.ScalarBlocks(2, 16, 7), 2)

	andID, _ := nl.CellByName("g_and")
	dID, _ := nl.NetByName("d")
	bID, _ := nl.NetByName("b")
	faults := []struct {
		lane int
		f    LaneFault
	}{
		{64 + 3, LaneFault{Kind: LaneLUTFlip, Cell: andID, Minterm: 3}},
		{128 + 9, LaneFault{Kind: LaneStuckAt1, Net: dID}},
		{192 + 17, LaneFault{Kind: LaneStuckAt0, Net: bID}},
	}
	for _, lf := range faults {
		if err := wide.SetLaneFault(lf.lane, lf.f); err != nil {
			t.Fatal(err)
		}
	}
	if err := wide.SetLaneFault(256, LaneFault{Kind: LaneStuckAt0, Net: dID}); err == nil {
		t.Fatal("lane 256 accepted on a 256-lane machine")
	}
	got := wide.RunTrace(stim)
	golden := narrow.Fork().RunTrace(stim)

	for _, lf := range faults {
		mu := narrow.Fork()
		if err := mu.SetLaneFault(lf.lane%64, lf.f); err != nil {
			t.Fatal(err)
		}
		ref := mu.RunTrace(stim)
		word, bit := lf.lane/64, uint(lf.lane%64)
		for c := 0; c < got.Cycles; c++ {
			for po := 0; po < got.NumPOs; po++ {
				if got.OutW(c, po, word)>>bit&1 != ref.Out(c, po)>>bit&1 {
					t.Fatalf("lane %d cycle %d PO %d: wide fault diverges from narrow reference",
						lf.lane, c, po)
				}
				// Lanes of word 0 carry no fault: must match golden.
				if got.OutW(c, po, 0) != golden.Out(c, po) {
					t.Fatalf("cycle %d PO %d: fault on lane %d leaked into word 0", c, po, lf.lane)
				}
			}
		}
	}
	wide.ClearLaneFaults()
	clean := wide.RunTrace(stim)
	for c := 0; c < clean.Cycles; c++ {
		for po := 0; po < clean.NumPOs; po++ {
			for w := 0; w < W; w++ {
				if clean.OutW(c, po, w) != golden.Out(c, po) {
					t.Fatalf("cleared wide machine differs from golden at word %d", w)
				}
			}
		}
	}
}

// TestWideLanePatchesBeyondWord0 arms a repair patch on a lane ≥ 64 and
// checks it against the width-1 engine patched on the corresponding
// in-word lane.
func TestWideLanePatchesBeyondWord0(t *testing.T) {
	nl := laneTestNetlist(t)
	const W = 2
	wide, err := CompileWidth(nl, W)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	stim := testgen.Repeat(testgen.ScalarBlocks(2, 12, 5), 2)
	xorID, _ := nl.CellByName("g_xor")
	const lane = 64 + 11
	const tt = 0x8 // AND instead of XOR
	if err := wide.SetLanePatch(lane, xorID, tt); err != nil {
		t.Fatal(err)
	}
	if err := wide.SetLanePatch(128, xorID, tt); err == nil {
		t.Fatal("lane 128 accepted on a 128-lane machine")
	}
	got := wide.RunTrace(stim)

	mu := narrow.Fork()
	if err := mu.SetLanePatch(lane%64, xorID, tt); err != nil {
		t.Fatal(err)
	}
	ref := mu.RunTrace(stim)
	golden := narrow.Fork().RunTrace(stim)
	for c := 0; c < got.Cycles; c++ {
		for po := 0; po < got.NumPOs; po++ {
			if got.OutW(c, po, 1)>>11&1 != ref.Out(c, po)>>11&1 {
				t.Fatalf("cycle %d PO %d: wide patch diverges from narrow reference", c, po)
			}
			if got.OutW(c, po, 0) != golden.Out(c, po) {
				t.Fatalf("cycle %d PO %d: patch on lane %d leaked into word 0", c, po, lane)
			}
		}
	}
}

// TestWideOverrideBroadcast checks that SetOverride pins all lane words
// of a widened machine and that downstream logic observes it everywhere.
func TestWideOverrideBroadcast(t *testing.T) {
	nl := laneTestNetlist(t)
	const W = 4
	wide, err := CompileWidth(nl, W)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	dID, _ := nl.NetByName("d")
	if err := wide.SetOverride(dID, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if err := narrow.SetOverride(dID, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	stim := testgen.ScalarBlocks(2, 12, 3)
	tw := wide.RunTrace(stim)
	tn := narrow.RunTrace(stim)
	for c := 0; c < tw.Cycles; c++ {
		for po := 0; po < tw.NumPOs; po++ {
			for w := 0; w < W; w++ {
				if tw.OutW(c, po, w) != tn.Out(c, po) {
					t.Fatalf("cycle %d PO %d word %d: override not broadcast", c, po, w)
				}
			}
		}
	}
}

// TestForkPreservesWidth checks that forks of a widened machine share the
// compiled wide program and reproduce its results independently.
func TestForkPreservesWidth(t *testing.T) {
	nl := bench.Catalog()[0].Build()
	pis := nl.SortedPINames()
	const W = 4
	m, err := CompileWidth(nl, W)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Fork()
	if f.Width() != W || f.Lanes() != 64*W {
		t.Fatalf("fork width %d lanes %d", f.Width(), f.Lanes())
	}
	stim := testgen.RandomBlocks(len(pis)*W, 6, 21)
	ta := m.RunTrace(stim)
	tb := f.RunTrace(stim)
	for i := range ta.Outs {
		if ta.Outs[i] != tb.Outs[i] {
			t.Fatalf("fork trace diverges at out word %d", i)
		}
	}
}

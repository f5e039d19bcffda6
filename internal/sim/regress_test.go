package sim

// Old-vs-new equivalence regression: every catalog design is replayed on
// identical stimulus through the legacy map-driven Step interpreter
// (ReferenceMachine — the seed's cover-evaluating simulator, kept as the
// differential oracle) and through the compiled RunTrace path, asserting
// bit-identical primary-output and DFF-state streams. The raw
// (pre-mapping) designs exercise the generic cover kernel alongside the
// small-k truth-table kernels; a synthetic netlist of single-fanout LUT
// chains adds irregular 3- and 4-input tables.

import (
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/testgen"
)

func TestRunTraceMatchesStepOnCatalog(t *testing.T) {
	for _, d := range bench.Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			nl := d.Build()
			cols := len(nl.SortedPINames())
			checkTraceMatchesReference(t, nl, 1, testgen.RandomBlocks(cols, 12, 0xC0FFEE))
			// Held stimulus: the replay reuses quiescent steps, and the
			// reference interpreter never does.
			checkTraceMatchesReference(t, nl, 1, heldStim(cols, 12, 0xC0FFEE))
			checkTraceMatchesReference(t, nl, 8, heldStim(cols, 12, 0xFEED))
			checkTraceMatchesReference(t, nl, 8, heldStim(cols*8, 12, 0xBEEF))
		})
	}
}

// heldStim is random stimulus in the shape campaigns replay; see
// holdWithTail.
func heldStim(cols, blocks int, seed int64) [][]uint64 {
	return holdWithTail(testgen.RandomBlocks(cols, blocks, seed), 4)
}

// holdWithTail holds every row for hold cycles (testgen.Repeat aliases
// the held rows) and appends a constant tail of 6 equal but distinct
// copies of the first row, so trace replays reuse quiescent steps through
// both the aliased and the word-compare row test.
func holdWithTail(rows [][]uint64, hold int) [][]uint64 {
	stim := testgen.Repeat(rows, hold)
	for i := 0; i < 6; i++ {
		stim = append(stim, append([]uint64(nil), rows[0]...))
	}
	return stim
}

// TestRunTraceMatchesStepOnLUTChains runs the reference differential on
// chains of single-fanout LUTs with irregular full-support tables — no
// parity, chain, tree, mux or majority shape — at k = 3 and 4.
func TestRunTraceMatchesStepOnLUTChains(t *testing.T) {
	const tt4, tt3 = 0x0116, 0x0016

	nl := netlist.New("unclassified-chains")
	a, b := nl.AddPI("a"), nl.AddPI("b")
	c, d := nl.AddPI("c"), nl.AddPI("d")
	// Chain 1: 4-input head feeding a single inverter.
	h1 := nl.AddNet("h1")
	o1 := nl.AddNet("o1")
	nl.MustAddLUT("head4", coverFromTT(tt4, 4), []netlist.NetID{a, b, c, d}, h1)
	nl.MustAddLUT("tail1", logic.NotN(), []netlist.NetID{h1}, o1)
	nl.MarkPO(o1)
	// Chain 2: 3-input head whose tail shares its support.
	h2 := nl.AddNet("h2")
	o2 := nl.AddNet("o2")
	nl.MustAddLUT("head3", coverFromTT(tt3, 3), []netlist.NetID{a, b, c}, h2)
	nl.MustAddLUT("tail3", coverFromTT(tt3, 3), []netlist.NetID{h2, a, b}, o2)
	nl.MarkPO(o2)

	m, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range m.nodes {
		if n.op < opTT1 || n.op > opTT4 {
			t.Fatalf("LUT driving net %d lowered to opcode %d, want an opTT* kernel", n.out, n.op)
		}
	}
	cols := len(nl.SortedPINames())
	checkTraceMatchesReference(t, nl, 1, testgen.RandomBlocks(cols, 12, 0xC0FFEE))
	checkTraceMatchesReference(t, nl, 1, heldStim(cols, 12, 0xC0FFEE))
}

// checkTraceMatchesReference replays stim through the compiled RunTrace
// path at lane width W and through the reference interpreter, failing on
// the first output or DFF-state word that differs. Narrow rows (one word
// per PI) are broadcast, so every lane word must match one reference
// replay; wide rows (W words per PI) are checked word by word against a
// reference replay of that word's patterns.
func checkTraceMatchesReference(t *testing.T, nl *netlist.Netlist, W int, stim [][]uint64) {
	t.Helper()
	pis := nl.SortedPINames()
	pos := nl.SortedPONames()

	// New path: compiled trace.
	mt, err := CompileWidth(nl, W)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.BindNames(pis); err != nil {
		t.Fatal(err)
	}
	cols, err := mt.POCols(pos)
	if err != nil {
		t.Fatal(err)
	}
	mt.CaptureState(true)
	tr := mt.RunTrace(stim)
	wide := len(stim) > 0 && len(stim[0]) > len(pis)

	for w := 0; w < W; w++ {
		if !wide && w > 0 {
			// Broadcast rows: every lane word must equal word 0.
			for c := 0; c < tr.Cycles; c++ {
				for i := range pos {
					if tr.OutW(c, cols[i], w) != tr.Out(c, cols[i]) {
						t.Fatalf("W=%d cycle %d output %q: word %d %#x != word 0 %#x",
							W, c, pos[i], w, tr.OutW(c, cols[i], w), tr.Out(c, cols[i]))
					}
				}
			}
			continue
		}
		rows := stim
		if wide {
			rows = narrowWord(stim, len(pis), W, w)
		}
		// Legacy path: per-cycle maps through the cover interpreter.
		ms, err := CompileReference(nl)
		if err != nil {
			t.Fatal(err)
		}
		for c, row := range rows {
			in := make(map[string]uint64, len(pis))
			for j, name := range pis {
				in[name] = row[j]
			}
			out, err := ms.Step(in)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range pos {
				if tr.OutW(c, cols[i], w) != out[name] {
					t.Fatalf("W=%d word %d cycle %d output %q: trace %#x != step %#x",
						W, w, c, name, tr.OutW(c, cols[i], w), out[name])
				}
			}
			sw := ms.StateWords()
			if len(sw) != tr.NumState {
				t.Fatalf("DFF count mismatch: %d vs %d", len(sw), tr.NumState)
			}
			for i := range sw {
				if tr.StateW(c, i, w) != sw[i] {
					t.Fatalf("W=%d word %d cycle %d dff %d: trace state %#x != step state %#x",
						W, w, c, i, tr.StateW(c, i, w), sw[i])
				}
			}
		}
	}
}

// coverFromTT builds a minterm cover for an explicit truth table, bit m
// giving the output for the assignment where pin j carries bit j of m.
func coverFromTT(tt uint16, k int) logic.Cover {
	cov := logic.Cover{N: k}
	for m := 0; m < 1<<uint(k); m++ {
		if tt>>uint(m)&1 == 0 {
			continue
		}
		var cu logic.Cube
		for v := 0; v < k; v++ {
			cu = cu.WithLit(v, m>>uint(v)&1 == 1)
		}
		cov.Cubes = append(cov.Cubes, cu)
	}
	return cov
}

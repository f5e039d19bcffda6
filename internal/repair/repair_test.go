package repair

import (
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
	"fpgadbg/internal/testgen"
)

// goldenDesign builds a small sequential design with asymmetric logic so
// every candidate kind has a meaningful target.
func goldenDesign(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("repairme")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	c := nl.AddPI("c")
	n1 := nl.AddNet("n1")
	n2 := nl.AddNet("n2")
	d := nl.AddNet("d")
	q := nl.AddNet("q")
	y := nl.AddNet("y")
	nl.MustAddLUT("g_and", logic.AndN(2), []netlist.NetID{a, b}, n1)
	nl.MustAddLUT("g_mux", logic.Mux2(), []netlist.NetID{c, n1, b}, n2)
	nl.MustAddLUT("g_xor", logic.XorN(2), []netlist.NetID{n2, q}, d)
	nl.MustAddDFF("ff", d, q, 0)
	nl.MustAddLUT("g_or", logic.OrN(2), []netlist.NetID{n1, d}, y)
	nl.MarkPO(y)
	nl.MarkPO(d)
	return nl
}

func detStim(npi int) [][]uint64 {
	// Odd hold count: holding a pattern an even number of cycles walks
	// the XOR-feedback register back to its pre-pattern state, hiding
	// state-dependent minterms from excitation.
	return testgen.Repeat(testgen.ScalarBlocks(npi, 48, 3), 3)
}

// runSearch builds an engine over (golden, impl) and searches the given
// suspects under the default configuration.
func runSearch(t *testing.T, golden, impl *netlist.Netlist, suspects []string) *Outcome {
	t.Helper()
	mg, err := sim.Compile(golden)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := sim.Compile(impl)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(mg, mi)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Search(suspects, detStim(len(golden.SortedPINames())), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// applyAndCheck applies the winner and asserts behavioural equivalence
// with the golden design.
func applyAndCheck(t *testing.T, golden, impl *netlist.Netlist, out *Outcome) {
	t.Helper()
	if out.Winner == nil {
		t.Fatalf("no winner: %d candidates, %d survivors, %d verified",
			out.Candidates, out.Survivors, out.Verified)
	}
	if _, err := out.Winner.Apply(impl); err != nil {
		t.Fatal(err)
	}
	mm, err := sim.Equivalent(golden, impl, 16, 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	if mm != nil {
		t.Fatalf("repaired design still differs: %v (winner %s)", mm, out.Winner.Describe())
	}
}

func TestSearchRepairsBitFlip(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	id, _ := impl.CellByName("g_xor")
	tt := impl.Cells[id].Func.MustTT()
	tt.SetBit(2, !tt.Bit(2))
	impl.Cells[id].Func = tt.ToCover()

	out := runSearch(t, golden, impl, []string{"g_xor"})
	applyAndCheck(t, golden, impl, out)
	if out.Winner.Kind != BitFlip || out.Winner.Bit != 2 {
		t.Fatalf("want bit-flip of minterm 2, got %s", out.Winner.Describe())
	}
}

func TestSearchRepairsPinSwap(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	id, _ := impl.CellByName("g_mux")
	f := impl.Cells[id].Fanin
	f[1], f[2] = f[2], f[1] // swapped data pins of the asymmetric mux

	out := runSearch(t, golden, impl, []string{"g_mux"})
	applyAndCheck(t, golden, impl, out)
}

func TestSearchRepairsPolarityViaResynth(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	id, _ := impl.CellByName("g_mux")
	inv, err := impl.Cells[id].Func.Not()
	if err != nil {
		t.Fatal(err)
	}
	impl.Cells[id].Func = inv

	out := runSearch(t, golden, impl, []string{"g_mux"})
	applyAndCheck(t, golden, impl, out)
	if out.Winner.Kind != Resynth {
		t.Fatalf("polarity error should need resynthesis, got %s", out.Winner.Describe())
	}
}

func TestSearchRepairsStuckDriver(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	id, _ := impl.CellByName("g_and")
	impl.Cells[id].Func = logic.Const(2, true) // stuck-at-1 driver, applied form

	out := runSearch(t, golden, impl, []string{"g_and"})
	applyAndCheck(t, golden, impl, out)
}

// TestSearchAmbiguousSuspects feeds the whole suspect class and checks
// the winner still lands on the truly faulty cell's behaviour.
func TestSearchAmbiguousSuspects(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	id, _ := impl.CellByName("g_or")
	tt := impl.Cells[id].Func.MustTT()
	tt.SetBit(1, !tt.Bit(1))
	impl.Cells[id].Func = tt.ToCover()

	out := runSearch(t, golden, impl, []string{"g_or", "g_and", "g_xor"})
	applyAndCheck(t, golden, impl, out)
	if out.Winner.Cell != "g_or" {
		t.Fatalf("winner repaired %q, faulty cell is g_or", out.Winner.Cell)
	}
}

func TestSearchNotExcited(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone() // no error injected
	mg, err := sim.Compile(golden)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := sim.Compile(impl)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(mg, mi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search([]string{"g_and"}, detStim(3), Config{Seed: 1}); err != ErrNotExcited {
		t.Fatalf("want ErrNotExcited, got %v", err)
	}
}

// TestValidateMatchesSerial pins the differential guarantee on the
// handcrafted design: lane-parallel validation and the serial
// clone+recompile path must agree on the exact surviving-candidate set.
func TestValidateMatchesSerial(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	id, _ := impl.CellByName("g_mux")
	tt := impl.Cells[id].Func.MustTT()
	tt.SetBit(5, !tt.Bit(5))
	impl.Cells[id].Func = tt.ToCover()

	mg, err := sim.Compile(golden)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := sim.Compile(impl)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(mg, mi)
	if err != nil {
		t.Fatal(err)
	}
	stim := detStim(3)
	cands, err := e.Enumerate([]string{"g_mux", "g_and", "g_xor", "g_or"}, stim)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 20 {
		t.Fatalf("expected a multi-batch-worthy candidate list, got %d", len(cands))
	}
	// The full stimulus, then lengths that cut the last replay window
	// short, shorter than one window, and just past it.
	for _, n := range []int{len(stim), 1, replayWindow - 1, replayWindow + 1, 2*replayWindow + 5} {
		checkValidateMatchesSerial(t, e, cands, stim[:n])
	}
}

// checkValidateMatchesSerial scores cands lane-parallel and serially on
// stim, requires identical surviving sets and exactly one armed batch per
// Lanes() candidates however early the replays stopped, and returns the
// lane-parallel verdicts with the replayed step count.
func checkValidateMatchesSerial(t *testing.T, e *Engine, cands []Candidate, stim [][]uint64) ([]bool, int) {
	t.Helper()
	gt, err := e.streams(stim, e.poNames)
	if err != nil {
		t.Fatal(err)
	}
	par, batches, replayed, err := e.validateAgainst(gt, cands, stim, nil)
	if err != nil {
		t.Fatal(err)
	}
	lanes := e.impl.Lanes()
	if want := (len(cands) + lanes - 1) / lanes; batches != want {
		t.Fatalf("%d-step stimulus: batches=%d for %d candidates on %d lanes, want %d",
			len(stim), batches, len(cands), lanes, want)
	}
	if replayed > batches*len(stim) {
		t.Fatalf("replayed %d steps, more than %d batches x %d", replayed, batches, len(stim))
	}
	ser, err := e.SerialValidate(cands, stim)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		if par[i] != ser[i] {
			t.Fatalf("%d-step stimulus, candidate %d (%s): parallel=%v serial=%v",
				len(stim), i, cands[i].Describe(), par[i], ser[i])
		}
	}
	return par, replayed
}

// TestValidateStopsWhenEveryLaneDies fills one batch with candidates that
// invert a primary-output LUT, so every lane diverges on the first step:
// validation must stop after the first replay window.
func TestValidateStopsWhenEveryLaneDies(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	e := newTestEngine(t, golden, impl, 1)
	orID, _ := impl.CellByName("g_or")
	orTT := impl.Cells[orID].Func.MustTT()
	var inv uint16
	for m := uint64(0); m < 4; m++ {
		if !orTT.Bit(m) {
			inv |= 1 << m
		}
	}
	cands := make([]Candidate, e.impl.Lanes())
	for i := range cands {
		cands[i] = Candidate{Cell: "g_or", Kind: Resynth, TT: inv, Flips: 4}
	}
	stim := detStim(3)
	if len(stim) <= replayWindow {
		t.Fatalf("stimulus of %d steps fits one window", len(stim))
	}
	alive, replayed := checkValidateMatchesSerial(t, e, cands, stim)
	for i, ok := range alive {
		if ok {
			t.Fatalf("candidate %d survived an inverted output", i)
		}
	}
	if replayed != replayWindow {
		t.Fatalf("replayed %d steps, want one window of %d", replayed, replayWindow)
	}
}

// TestValidateSurvivorInLastLane runs a 512-lane program over two full
// batches whose only survivor sits in the last lane of the last lane
// word, so the early exit must keep replaying for that one lane.
func TestValidateSurvivorInLastLane(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	id, _ := impl.CellByName("g_mux")
	tt := impl.Cells[id].Func.MustTT()
	tt.SetBit(5, !tt.Bit(5))
	impl.Cells[id].Func = tt.ToCover()
	e := newTestEngine(t, golden, impl, 8)
	stim := detStim(3)
	cands, err := e.Enumerate([]string{"g_mux", "g_and", "g_xor", "g_or"}, stim)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := e.SerialValidate(cands, stim)
	if err != nil {
		t.Fatal(err)
	}
	var dead []Candidate
	var fix *Candidate
	for i, ok := range ser {
		if ok {
			fix = &cands[i]
		} else {
			dead = append(dead, cands[i])
		}
	}
	if fix == nil || len(dead) == 0 {
		t.Fatalf("want survivors and casualties, got %d of %d surviving", len(cands)-len(dead), len(cands))
	}
	n := 2 * e.impl.Lanes()
	batch := make([]Candidate, n)
	for i := range batch[:n-1] {
		batch[i] = dead[i%len(dead)]
	}
	batch[n-1] = *fix
	alive, _ := checkValidateMatchesSerial(t, e, batch, stim)
	for i, ok := range alive {
		if ok != (i == n-1) {
			t.Fatalf("candidate %d alive=%v; only the last lane should survive", i, ok)
		}
	}
}

// newTestEngine compiles golden and impl into a repair engine with the
// implementation program at the given lane width.
func newTestEngine(tb testing.TB, golden, impl *netlist.Netlist, width int) *Engine {
	tb.Helper()
	mg, err := sim.Compile(golden)
	if err != nil {
		tb.Fatal(err)
	}
	mi, err := sim.CompileWidth(impl, width)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEngine(mg, mi)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestValidateMatchesSerialOnCatalogDesign repeats the differential
// oracle on a real mapped benchmark with an injected design error and
// candidates spanning several 64-lane batches.
func TestValidateMatchesSerialOnCatalogDesign(t *testing.T) {
	info, err := bench.ByName("9sym")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := synth.TechMap(info.Build())
	if err != nil {
		t.Fatal(err)
	}
	impl := golden.Clone()
	inj, err := faults.Inject(impl, faults.LUTBitFlip, 5)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := sim.Compile(golden)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := sim.Compile(impl)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(mg, mi)
	if err != nil {
		t.Fatal(err)
	}
	// Suspect pool: the injected cell plus a handful of healthy ones, so
	// surviving and dying candidates both cross batch boundaries.
	suspects := []string{inj.CellName}
	for ci := range impl.Cells {
		c := &impl.Cells[ci]
		if !c.Dead && c.Kind == netlist.KindLUT && len(c.Fanin) >= 2 && len(c.Fanin) <= 4 && len(suspects) < 10 {
			suspects = append(suspects, c.Name)
		}
	}
	npi := len(golden.SortedPINames())
	stim := testgen.Repeat(testgen.ScalarBlocks(npi, 32, 7), 2)
	cands, err := e.Enumerate(suspects, stim)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) <= 64 {
		t.Fatalf("want a multi-batch candidate list, got %d", len(cands))
	}
	// The enumeration stimulus, then a 3-cycle hold whose length is not a
	// multiple of the replay window.
	for _, st := range [][][]uint64{stim, testgen.Repeat(testgen.ScalarBlocks(npi, 50, 9), 3)} {
		par, _ := checkValidateMatchesSerial(t, e, cands, st)
		surviving := 0
		for _, ok := range par {
			if ok {
				surviving++
			}
		}
		if surviving == 0 {
			t.Fatal("no surviving candidate — the reverse flip must survive")
		}
	}
}

// TestWideValidateMatchesNarrow scores one candidate list on a width-1
// and a width-4 (256-lane) implementation program; the surviving sets
// must be identical and the wide engine must use fewer lane batches.
func TestWideValidateMatchesNarrow(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	id, _ := impl.CellByName("g_mux")
	tt := impl.Cells[id].Func.MustTT()
	tt.SetBit(5, !tt.Bit(5))
	impl.Cells[id].Func = tt.ToCover()

	mg, err := sim.Compile(golden)
	if err != nil {
		t.Fatal(err)
	}
	stim := detStim(3)
	run := func(width int) ([]bool, int, int) {
		mi, err := sim.CompileWidth(impl.Clone(), width)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(mg, mi)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := e.Enumerate([]string{"g_mux", "g_and", "g_xor", "g_or"}, stim)
		if err != nil {
			t.Fatal(err)
		}
		alive, batches, err := e.Validate(cands, stim, nil)
		if err != nil {
			t.Fatal(err)
		}
		return alive, batches, len(cands)
	}
	na, nb, nc := run(1)
	wa, wb, wc := run(4)
	if nc != wc {
		t.Fatalf("candidate counts differ: %d vs %d", nc, wc)
	}
	for i := range na {
		if na[i] != wa[i] {
			t.Fatalf("candidate %d: narrow=%v wide=%v", i, na[i], wa[i])
		}
	}
	if want := (nc + 255) / 256; wb != want {
		t.Fatalf("wide batches = %d, want %d", wb, want)
	}
	if nc > 64 && wb >= nb {
		t.Fatalf("wide validation did not shrink batches: %d vs %d", wb, nb)
	}
}

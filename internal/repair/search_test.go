package repair

import (
	"errors"
	"fmt"
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/instr"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/synth"
	"fpgadbg/internal/testgen"
)

// searchCase is one catalog repair problem: a mapped golden design, a
// clone carrying faults.InjectRandom's error (optionally with a MISR
// observing the suspects, as localization leaves the netlist), the
// suspect set and the detection stimulus the debug flow would use.
type searchCase struct {
	golden, impl *netlist.Netlist
	suspects     []string
	stim         [][]uint64
}

// newSearchCase builds the repair problem for one design and fault seed.
// Suspects are the injected cell plus the LUTs driving its fanins; the
// stimulus is 8 random 64-pattern blocks expanded to broadcast scalar
// rows and held 4 cycles each, the shape of debug.DictStimulus.
func newSearchCase(tb testing.TB, design string, seed int64, misr bool) *searchCase {
	tb.Helper()
	info, err := bench.ByName(design)
	if err != nil {
		tb.Fatal(err)
	}
	golden, err := synth.TechMap(info.Build())
	if err != nil {
		tb.Fatal(err)
	}
	impl := golden.Clone()
	inj, err := faults.InjectRandom(impl, seed)
	if err != nil {
		tb.Fatal(err)
	}
	suspects := []string{inj.CellName}
	observed := []netlist.NetID{impl.Cells[inj.Cell].Out}
	for _, f := range impl.Cells[inj.Cell].Fanin {
		d := impl.Nets[f].Driver
		if d == netlist.NilCell || impl.Cells[d].Kind != netlist.KindLUT || len(suspects) >= 6 {
			continue
		}
		suspects = append(suspects, impl.Cells[d].Name)
		observed = append(observed, f)
	}
	if misr {
		if _, err := instr.InsertMISR(impl, "dbg_misr", observed); err != nil {
			tb.Fatal(err)
		}
	}
	npi := len(golden.SortedPINames())
	stim := testgen.Repeat(testgen.TransposeToScalar(testgen.RandomBlocks(npi, 8, seed)), 4)
	return &searchCase{golden: golden, impl: impl, suspects: suspects, stim: stim}
}

// searchPin is one recorded Search outcome.
type searchPin struct {
	design string
	seed   int64
	misr   bool
	row    string
}

// searchPins were recorded before replays skipped quiescent steps and
// stopped early, and must not move: what a search finds, and how many
// lane batches it arms, is independent of how much of each replay runs.
// The MISR rows carry signature flip-flops whose state never settles.
var searchPins = []searchPin{
	{"9sym", 1, false, "cands=42 surv=2 verified=2 batches=2 winner=bit-flip: flip minterm 15 of m_9sym/f_c1_c0_c1_c0_c1~358"},
	{"9sym", 2, false, "cands=27 surv=0 verified=0 batches=1 winner=-"},
	{"9sym", 3, false, "cands=44 surv=1 verified=1 batches=2 winner=resynth: rewrite m_9sym/f_c0_c0_c0_c0~7 to tt 00e8 (6 bits)"},
	{"9sym", 4, false, "cands=43 surv=1 verified=1 batches=2 winner=pin-swap: swap pins 0,2 of m_9sym/f_c1_c1_c1_c0~489"},
	{"9sym", 5, false, "cands=16 surv=0 verified=0 batches=1 winner=-"},
	{"9sym", 6, false, "not-excited"},
	{"9sym", 7, false, "cands=34 surv=1 verified=1 batches=2 winner=resynth: rewrite m_9sym/f_c1~2 to tt 00e4 (8 bits)"},
	{"9sym", 8, false, "cands=16 surv=1 verified=1 batches=2 winner=bit-flip: flip minterm 7 of m_9sym/f_c1_c1_c0_c1_c0~450"},
	{"c880", 1, false, "cands=45 surv=1 verified=1 batches=2 winner=bit-flip: flip minterm 2 of m_c880/carry.131"},
	{"c880", 2, false, "cands=22 surv=1 verified=1 batches=2 winner=resynth: rewrite m_c880/res/l0_3/m0.99 to tt acac (2 bits)"},
	{"c880", 3, false, "cands=23 surv=1 verified=1 batches=2 winner=resynth: rewrite m_c880/res/l0_3/m0.99 to tt ac5f (8 bits)"},
	{"c880", 4, false, "cands=23 surv=2 verified=2 batches=2 winner=resynth: rewrite m_c880/res/l0_3/m0.99 to tt ac08 (3 bits)"},
	{"c880", 5, false, "cands=57 surv=0 verified=0 batches=1 winner=-"},
	{"c880", 6, false, "cands=18 surv=1 verified=1 batches=2 winner=bit-flip: flip minterm 6 of m_c880/add/c6.22"},
	{"c880", 7, false, "cands=59 surv=1 verified=1 batches=2 winner=resynth: rewrite m_c880/z2.134 to tt ffe4 (16 bits)"},
	{"c880", 8, false, "cands=27 surv=0 verified=0 batches=1 winner=-"},
	{"c499", 1, false, "not-excited"},
	{"c499", 2, false, "cands=57 surv=0 verified=0 batches=1 winner=-"},
	{"c499", 3, false, "cands=46 surv=1 verified=1 batches=2 winner=resynth: rewrite m_c499/dec28~202 to tt 0600 (16 bits)"},
	{"c499", 4, false, "not-excited"},
	{"c499", 5, false, "cands=65 surv=2 verified=2 batches=2 winner=bit-flip: flip minterm 0 of m_c499/dec11~79"},
	{"c499", 6, false, "not-excited"},
	{"c499", 7, false, "cands=81 surv=1 verified=1 batches=2 winner=resynth: rewrite m_c499/syn0.15 to tt 6996 (16 bits)"},
	{"c499", 8, false, "not-excited"},
	{"styr", 1, false, "cands=5 surv=1 verified=1 batches=2 winner=bit-flip: flip minterm 2 of m_styr/g16_0.148"},
	{"styr", 2, false, "cands=10 surv=0 verified=0 batches=1 winner=-"},
	{"styr", 3, false, "cands=11 surv=1 verified=1 batches=2 winner=resynth: rewrite m_styr/g5_0.71 to tt 0008 (8 bits)"},
	{"styr", 4, false, "cands=38 surv=1 verified=1 batches=2 winner=pin-swap: swap pins 0,1 of m_styr/t6_1.81"},
	{"styr", 5, false, "cands=30 surv=0 verified=0 batches=1 winner=-"},
	{"styr", 6, false, "not-excited"},
	{"styr", 7, false, "cands=5 surv=1 verified=1 batches=2 winner=resynth: rewrite m_styr/g3_0.57 to tt 0008 (4 bits)"},
	{"styr", 8, false, "cands=42 surv=0 verified=0 batches=1 winner=-"},
	{"9sym", 1, true, "cands=42 surv=2 verified=2 batches=2 winner=bit-flip: flip minterm 15 of m_9sym/f_c1_c0_c1_c0_c1~358"},
	{"9sym", 2, true, "cands=27 surv=0 verified=0 batches=1 winner=-"},
	{"9sym", 3, true, "cands=44 surv=1 verified=1 batches=2 winner=resynth: rewrite m_9sym/f_c0_c0_c0_c0~7 to tt 00e8 (6 bits)"},
	{"9sym", 4, true, "cands=43 surv=1 verified=1 batches=2 winner=pin-swap: swap pins 0,2 of m_9sym/f_c1_c1_c1_c0~489"},
	{"9sym", 5, true, "cands=16 surv=0 verified=0 batches=1 winner=-"},
	{"9sym", 6, true, "not-excited"},
	{"9sym", 7, true, "cands=34 surv=1 verified=1 batches=2 winner=resynth: rewrite m_9sym/f_c1~2 to tt 00e4 (8 bits)"},
	{"9sym", 8, true, "cands=16 surv=1 verified=1 batches=2 winner=bit-flip: flip minterm 7 of m_9sym/f_c1_c1_c0_c1_c0~450"},
	{"c880", 1, true, "cands=45 surv=1 verified=1 batches=2 winner=bit-flip: flip minterm 2 of m_c880/carry.131"},
	{"c880", 2, true, "cands=22 surv=1 verified=1 batches=2 winner=resynth: rewrite m_c880/res/l0_3/m0.99 to tt acac (2 bits)"},
	{"c880", 3, true, "cands=23 surv=1 verified=1 batches=2 winner=resynth: rewrite m_c880/res/l0_3/m0.99 to tt ac5f (8 bits)"},
	{"c880", 4, true, "cands=23 surv=2 verified=2 batches=2 winner=resynth: rewrite m_c880/res/l0_3/m0.99 to tt ac08 (3 bits)"},
	{"c880", 5, true, "cands=57 surv=0 verified=0 batches=1 winner=-"},
	{"c880", 6, true, "cands=18 surv=1 verified=1 batches=2 winner=bit-flip: flip minterm 6 of m_c880/add/c6.22"},
	{"c880", 7, true, "cands=59 surv=1 verified=1 batches=2 winner=resynth: rewrite m_c880/z2.134 to tt ffe4 (16 bits)"},
	{"c880", 8, true, "cands=27 surv=0 verified=0 batches=1 winner=-"},
	{"c499", 1, true, "not-excited"},
	{"c499", 2, true, "cands=57 surv=0 verified=0 batches=1 winner=-"},
	{"c499", 3, true, "cands=46 surv=1 verified=1 batches=2 winner=resynth: rewrite m_c499/dec28~202 to tt 0600 (16 bits)"},
	{"c499", 4, true, "not-excited"},
	{"c499", 5, true, "cands=65 surv=2 verified=2 batches=3 winner=bit-flip: flip minterm 0 of m_c499/dec11~79"},
	{"c499", 6, true, "not-excited"},
	{"c499", 7, true, "cands=81 surv=1 verified=1 batches=3 winner=resynth: rewrite m_c499/syn0.15 to tt 6996 (16 bits)"},
	{"c499", 8, true, "not-excited"},
	{"styr", 1, true, "cands=5 surv=1 verified=1 batches=2 winner=bit-flip: flip minterm 2 of m_styr/g16_0.148"},
	{"styr", 2, true, "cands=10 surv=0 verified=0 batches=1 winner=-"},
	{"styr", 3, true, "cands=11 surv=1 verified=1 batches=2 winner=resynth: rewrite m_styr/g5_0.71 to tt 0008 (8 bits)"},
	{"styr", 4, true, "cands=38 surv=1 verified=1 batches=2 winner=pin-swap: swap pins 0,1 of m_styr/t6_1.81"},
	{"styr", 5, true, "cands=30 surv=0 verified=0 batches=1 winner=-"},
	{"styr", 6, true, "not-excited"},
	{"styr", 7, true, "cands=5 surv=1 verified=1 batches=2 winner=resynth: rewrite m_styr/g3_0.57 to tt 0008 (4 bits)"},
	{"styr", 8, true, "cands=42 surv=0 verified=0 batches=1 winner=-"},
}

func outcomeRow(out *Outcome, err error) string {
	if err != nil {
		if errors.Is(err, ErrNotExcited) {
			return "not-excited"
		}
		return "error: " + err.Error()
	}
	winner := "-"
	if out.Winner != nil {
		winner = out.Winner.Describe()
	}
	return fmt.Sprintf("cands=%d surv=%d verified=%d batches=%d winner=%s",
		out.Candidates, out.Survivors, out.Verified, out.Batches, winner)
}

// TestSearchOutcomesPinned replays the recorded catalog searches: plain
// injected errors on a 256-lane program, MISR-carrying netlists on the
// 64-lane one.
func TestSearchOutcomesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog searches")
	}
	var got []string
	for _, misr := range []bool{false, true} {
		width := 4
		if misr {
			width = 1
		}
		for _, design := range []string{"9sym", "c880", "c499", "styr"} {
			for seed := int64(1); seed <= 8; seed++ {
				sc := newSearchCase(t, design, seed, misr)
				out, err := newTestEngine(t, sc.golden, sc.impl, width).Search(sc.suspects, sc.stim, Config{Seed: seed})
				row := outcomeRow(out, err)
				got = append(got, fmt.Sprintf("\t{%q, %d, %v, %q},", design, seed, misr, row))
				for _, p := range searchPins {
					if p.design == design && p.seed == seed && p.misr == misr && p.row != row {
						t.Errorf("%s seed %d misr=%v:\n got %s\nwant %s", design, seed, misr, row, p.row)
					}
				}
			}
		}
	}
	if len(searchPins) != len(got) {
		t.Errorf("%d pins for %d searches; current outcomes:", len(searchPins), len(got))
		for _, g := range got {
			t.Log(g)
		}
	}
}

// BenchmarkRepairSearch times one full candidate search on c880 — the
// campaign's correction step, from excitation check to ranked winner —
// on a 256-lane implementation program.
func BenchmarkRepairSearch(b *testing.B) {
	sc := newSearchCase(b, "c880", 3, false)
	e := newTestEngine(b, sc.golden, sc.impl, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(sc.suspects, sc.stim, Config{Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

package repair

import (
	"errors"
	"fmt"
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
	"fpgadbg/internal/testgen"
)

// TestOracleStreamsMatchRunTrace pins the packed oracle to the replay it
// memoizes: on a combinational, a second combinational and a sequential
// design, at golden widths 1 and 4, every stream equals lane 0 of
// RunTrace (and every lane word of it is that bit broadcast) for all
// primary outputs and a spread of internal nets. The stimuli are the
// search's own: detection, observation, verification round 0, and their
// concatenation, the observation stimulus of refinement round 1. Both
// widths read through one oracle, so the width-4 engine must be served
// entirely from what the width-1 engine recorded.
func TestOracleStreamsMatchRunTrace(t *testing.T) {
	for _, design := range []string{"9sym", "c499", "styr"} {
		t.Run(design, func(t *testing.T) {
			info, err := bench.ByName(design)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := synth.TechMap(info.Build())
			if err != nil {
				t.Fatal(err)
			}
			npi := len(golden.SortedPINames())
			det := testgen.Repeat(testgen.TransposeToScalar(testgen.RandomBlocks(npi, 4, 5)), 2)
			observe := testgenScalar(npi, 256, 5+obsSeedOffset, 2)
			verify := testgenScalar(npi, 128, 5+verifySeedOffset, 2)
			concat := append(append(append([][]uint64{}, det...), observe...), verify...)

			var nets []string
			for ci := range golden.Cells {
				if c := &golden.Cells[ci]; !c.Dead && ci%7 == 0 {
					nets = append(nets, golden.NetName(c.Out))
				}
			}
			oracle := NewOracle(nil, "")
			for _, width := range []int{1, 4} {
				mg, err := sim.CompileWidth(golden, width)
				if err != nil {
					t.Fatal(err)
				}
				mi, err := sim.Compile(golden.Clone())
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngine(mg, mi)
				if err != nil {
					t.Fatal(err)
				}
				e.SetOracle(oracle)
				for si, stim := range [][][]uint64{det, observe, verify, concat} {
					// POs alone first, then nets with the POs again, so a
					// lookup adds columns to an entry that already has some.
					pos, err := e.streams(stim, e.poNames)
					if err != nil {
						t.Fatal(err)
					}
					cols, err := e.streams(stim, append(append([]string{}, nets...), e.poNames...))
					if err != nil {
						t.Fatal(err)
					}
					ref := mg.Fork()
					if err := ref.BindNames(e.piNames); err != nil {
						t.Fatal(err)
					}
					ids := make([]netlist.NetID, len(nets))
					for k, n := range nets {
						ids[k], _ = golden.NetByName(n)
					}
					if err := ref.Probe(ids...); err != nil {
						t.Fatal(err)
					}
					tr := ref.RunTrace(stim)
					for s := range stim {
						for w := 0; w < width; w++ {
							for po := range e.poNames {
								if got, want := goldenBit(pos[po], s), tr.OutW(s, po, w); got != want {
									t.Fatalf("width %d stim %d step %d PO %s word %d: oracle %#x, replay %#x",
										width, si, s, e.poNames[po], w, got, want)
								}
								if got, want := goldenBit(cols[len(nets)+po], s), tr.OutW(s, po, w); got != want {
									t.Fatalf("width %d stim %d step %d PO %s (with nets): oracle %#x, replay %#x",
										width, si, s, e.poNames[po], got, want)
								}
							}
							for k, n := range nets {
								if got, want := goldenBit(cols[k], s), tr.ProbeVals[(s*tr.NumProbes+k)*tr.Width+w]; got != want {
									t.Fatalf("width %d stim %d step %d net %s word %d: oracle %#x, replay %#x",
										width, si, s, n, w, got, want)
								}
							}
						}
					}
				}
				if width == 4 && e.oracleMisses != 0 {
					t.Fatalf("width-4 engine replayed %d times; the width-1 entries should serve it", e.oracleMisses)
				}
				if width == 1 && e.oracleMisses != 8 {
					t.Fatalf("width-1 engine replayed %d times, want 2 per stimulus", e.oracleMisses)
				}
			}
		})
	}
}

// TestSearchOutcomesPinnedSharedOracle reruns every TestSearchOutcomesPinned
// row twice through one oracle store shared by all designs and widths:
// the cold pass fills it, the warm pass must be served without a single
// golden replay, and both must reproduce the pinned rows exactly.
func TestSearchOutcomesPinnedSharedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog searches, twice")
	}
	store := &memStore{m: make(map[string]*Streams)}
	for pass := 0; pass < 2; pass++ {
		var misses int64
		for _, p := range searchPins {
			width := 4
			if p.misr {
				width = 1
			}
			sc := newSearchCase(t, p.design, p.seed, p.misr)
			e := newTestEngine(t, sc.golden, sc.impl, width)
			e.SetOracle(NewOracle(store, sc.golden.Fingerprint()))
			out, err := e.Search(sc.suspects, sc.stim, Config{Seed: p.seed})
			if row := outcomeRow(out, err); row != p.row {
				t.Errorf("pass %d %s seed %d misr=%v:\n got %s\nwant %s", pass, p.design, p.seed, p.misr, row, p.row)
			}
			misses += e.oracleMisses
		}
		if pass == 1 && misses != 0 {
			t.Fatalf("warm pass replayed the golden model %d times", misses)
		}
	}
}

// TestBroadcastGuard pins that Validate, Search and Enumerate reject a
// stimulus word that is neither 0 nor all-ones, and rows wider than the
// golden inputs, instead of silently comparing lane word 0.
func TestBroadcastGuard(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	id, _ := impl.CellByName("g_mux")
	tt := impl.Cells[id].Func.MustTT()
	tt.SetBit(5, !tt.Bit(5))
	impl.Cells[id].Func = tt.ToCover()
	e := newTestEngine(t, golden, impl, 1)
	good := detStim(3)
	cands, err := e.Enumerate([]string{"g_mux"}, good)
	if err != nil {
		t.Fatal(err)
	}
	bad := func(mut func([][]uint64) [][]uint64) [][]uint64 {
		st := make([][]uint64, len(good))
		for i, row := range good {
			st[i] = append([]uint64(nil), row...)
		}
		return mut(st)
	}
	for name, st := range map[string][][]uint64{
		"mixed word":  bad(func(st [][]uint64) [][]uint64 { st[70][1] = 0x5; return st }),
		"wide row":    bad(func(st [][]uint64) [][]uint64 { st[3] = append(st[3], 0); return st }),
		"packed word": testgen.Repeat(testgen.RandomBlocks(3, 4, 1), 2),
	} {
		if _, _, err := e.Validate(cands, st, nil); !errors.Is(err, ErrNotBroadcast) {
			t.Errorf("%s: Validate err = %v, want ErrNotBroadcast", name, err)
		}
		if _, err := e.Search([]string{"g_mux"}, st, Config{Seed: 1}); !errors.Is(err, ErrNotBroadcast) {
			t.Errorf("%s: Search err = %v, want ErrNotBroadcast", name, err)
		}
		if _, err := e.Enumerate([]string{"g_mux"}, st); !errors.Is(err, ErrNotBroadcast) {
			t.Errorf("%s: Enumerate err = %v, want ErrNotBroadcast", name, err)
		}
	}
	// Short rows leave the missing inputs at zero, as a replay does.
	short := make([][]uint64, len(good))
	for i, row := range good {
		short[i] = row[:2]
	}
	if _, _, err := e.Validate(cands, short, nil); err != nil {
		t.Fatalf("short rows rejected: %v", err)
	}
}

// TestSearchSpansCarryOracleAttrs checks the oracle's span counters: a
// cold search misses on its detection, observation and verification
// lookups, a repeat of it on the same engine hits on all three.
func TestSearchSpansCarryOracleAttrs(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	id, _ := impl.CellByName("g_mux")
	tt := impl.Cells[id].Func.MustTT()
	tt.SetBit(5, !tt.Bit(5))
	impl.Cells[id].Func = tt.ToCover()
	e := newTestEngine(t, golden, impl, 1)
	suspects := []string{"g_mux", "g_and", "g_xor", "g_or"}
	for pass, want := range []string{"oracle-miss", "oracle-hit"} {
		tr := obs.NewTrace(fmt.Sprint("pass", pass), "repairme", "repair", obs.NewRegistry())
		out, err := e.Search(suspects, detStim(3), Config{Seed: 1, Obs: tr})
		if err != nil || out.Winner == nil {
			t.Fatalf("pass %d: search failed: %v", pass, err)
		}
		per := map[string]int64{}
		for _, sp := range tr.Spans() {
			if sp.Stage != obs.StageRepairEnumerate && sp.Stage != obs.StageRepairValidate {
				continue
			}
			if _, ok := sp.Counters["oracle-hit"]; !ok {
				t.Fatalf("pass %d: %s span lacks oracle-hit: %v", pass, sp.Stage, sp.Counters)
			}
			if _, ok := sp.Counters["oracle-miss"]; !ok {
				t.Fatalf("pass %d: %s span lacks oracle-miss: %v", pass, sp.Stage, sp.Counters)
			}
			per[sp.Stage] += sp.Counters[want]
		}
		// One observation lookup; the detection and verification lookups.
		if per[obs.StageRepairEnumerate] != 1 || per[obs.StageRepairValidate] != 2 {
			t.Fatalf("pass %d: %s per stage = %v, want enumerate 1, validate 2", pass, want, per)
		}
	}
}

package repair

import (
	"sync"
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/synth"
	"fpgadbg/internal/testgen"
)

// checkModesAgree validates cands under stim on the cone alone, on the
// whole program and serially, and requires one verdict per candidate.
func checkModesAgree(t *testing.T, e *Engine, cands []Candidate, stim [][]uint64, serial []bool) {
	t.Helper()
	st, err := e.named(stim)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := e.goldenStreams(st, e.poNames)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []replayMode{replayCone, replayFull, replayAuto} {
		v, err := e.validate(gt, cands, st, nil, mode)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cands {
			if v.alive[i] != serial[i] {
				t.Fatalf("mode %d, %d-step stimulus, candidate %d (%s): lanes=%v serial=%v",
					mode, len(stim), i, cands[i].Describe(), v.alive[i], serial[i])
			}
		}
	}
}

// TestValidateConeMatchesFullAndSerial is the differential oracle of
// cone-restricted validation on every catalog design, sequential ones
// included, at widths 1 and 4: replaying only the candidates' fanout
// cone against the implementation memo, replaying the whole patched
// program, and the serial clone+apply+recompile path must keep exactly
// the same candidates. The stimulus ends mid-window, and the candidate
// list spans two batches at width 1.
func TestValidateConeMatchesFullAndSerial(t *testing.T) {
	for _, info := range bench.Catalog() {
		big := info.Name == "MIPS R2000" || info.Name == "DES"
		if testing.Short() && (big || info.Name == "s9234") {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			sc := newSearchCase(t, info.Name, 3, false)
			stim := sc.stim[:5*replayWindow+17]
			cands, err := newTestEngine(t, sc.golden, sc.impl, 1).Enumerate(sc.suspects, stim)
			if err != nil {
				t.Fatal(err)
			}
			if big && len(cands) > 70 {
				cands = cands[:70]
			}
			if len(cands) == 0 {
				t.Skip("no enumerable suspect")
			}
			serial, err := newTestEngine(t, sc.golden, sc.impl, 1).SerialValidate(cands, stim)
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range []int{1, 4} {
				checkModesAgree(t, newTestEngine(t, sc.golden, sc.impl, width), cands, stim, serial)
			}
		})
	}
}

// TestConeMemoExtendsAcrossBatches pins the prefix memo: the excitation
// check records the implementation only up to its first divergent
// window; a first batch of candidates that all die at once leaves it
// there, and a second batch holding the true fix must extend it to the
// end of the stimulus, window by window, with the same verdicts as the
// serial oracle. A second engine sharing the memo then validates the
// same candidates without replaying the implementation.
func TestConeMemoExtendsAcrossBatches(t *testing.T) {
	golden := goldenDesign(t)
	impl := golden.Clone()
	id, _ := impl.CellByName("g_mux")
	tt := impl.Cells[id].Func.MustTT()
	tt.SetBit(5, !tt.Bit(5))
	impl.Cells[id].Func = tt.ToCover()
	stim := detStim(3)
	store := &memStore{m: make(map[string]*Streams)}
	implOracle := NewOracle(store, "").ForImplementation("fp")

	e := newTestEngine(t, golden, impl, 1)
	e.SetImplOracle(implOracle)
	cands, err := e.Enumerate([]string{"g_mux"}, stim)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := e.SerialValidate(cands, stim)
	if err != nil {
		t.Fatal(err)
	}
	var fix *Candidate
	var dead []Candidate
	for i, ok := range serial {
		if ok {
			fix = &cands[i]
		} else {
			dead = append(dead, cands[i])
		}
	}
	if fix == nil || len(dead) == 0 {
		t.Fatalf("want a fix and casualties, got %d of %d surviving", len(cands)-len(dead), len(cands))
	}
	batch := make([]Candidate, e.impl.Lanes()+1)
	for i := range batch[:len(batch)-1] {
		batch[i] = dead[i%len(dead)]
	}
	batch[len(batch)-1] = *fix
	want := make([]bool, len(batch))
	want[len(want)-1] = true

	st, err := e.named(stim)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := e.goldenStreams(st, e.poNames)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := e.excited(st, gt, nil); err != nil || !ok {
		t.Fatalf("excited=%v err=%v", ok, err)
	}
	ent := store.m[implOracle.prefix+st.id]
	if ent.steps >= len(stim) || ent.steps%replayWindow != 0 {
		t.Fatalf("excitation recorded %d of %d steps, want a strict window-aligned prefix", ent.steps, len(stim))
	}
	for pass, eng := range []*Engine{e, newTestEngine(t, golden, impl, 1)} {
		eng.SetImplOracle(implOracle)
		misses := eng.implMisses
		v, err := eng.validate(gt, batch, st, nil, replayCone)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if v.alive[i] != want[i] {
				t.Fatalf("pass %d candidate %d (%s): alive=%v want %v", pass, i, batch[i].Describe(), v.alive[i], want[i])
			}
		}
		if v.batches != 2 {
			t.Fatalf("pass %d: %d batches, want 2", pass, v.batches)
		}
		if ent.steps != len(stim) {
			t.Fatalf("pass %d: memo covers %d of %d steps after the fix survived", pass, ent.steps, len(stim))
		}
		if pass == 1 && eng.implMisses != misses {
			t.Fatalf("warm engine replayed the implementation %d times", eng.implMisses-misses)
		}
	}
}

// coneFuzzDesigns are the catalog designs FuzzConeValidate draws from:
// small enough for a serial oracle per input, two of them sequential.
var coneFuzzDesigns = []string{"9sym", "styr", "c499", "sand", "c880", "planet1"}

// coneFuzzGolden caches the mapped designs across fuzz inputs.
var coneFuzzGolden = struct {
	sync.Mutex
	m map[string]*netlist.Netlist
}{m: map[string]*netlist.Netlist{}}

// fuzzGolden returns the mapped catalog design name, built once.
func fuzzGolden(t *testing.T, name string) *netlist.Netlist {
	coneFuzzGolden.Lock()
	defer coneFuzzGolden.Unlock()
	if g := coneFuzzGolden.m[name]; g != nil {
		return g
	}
	info, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := synth.TechMap(info.Build())
	if err != nil {
		t.Fatal(err)
	}
	coneFuzzGolden.m[name] = g
	return g
}

// FuzzConeValidate drives the cone/full/serial differential oracle over
// (design, suspect, candidate subset, stimulus seed): the suspect is any
// LUT of the design carrying a random injected error, the candidates a
// subset of its enumerated repairs, and the stimulus a short broadcast
// sequence that ends mid-window.
func FuzzConeValidate(f *testing.F) {
	f.Add(uint8(0), uint16(3), uint64(0xffff), int64(1))
	f.Add(uint8(1), uint16(40), uint64(0x5555), int64(2))
	f.Add(uint8(5), uint16(7), ^uint64(0), int64(3))
	f.Fuzz(func(t *testing.T, design uint8, suspect uint16, subset uint64, seed int64) {
		golden := fuzzGolden(t, coneFuzzDesigns[int(design)%len(coneFuzzDesigns)])
		impl := golden.Clone()
		if _, err := faults.InjectRandom(impl, seed); err != nil {
			t.Skip(err)
		}
		var luts []string
		for i := range impl.Cells {
			if c := &impl.Cells[i]; !c.Dead && c.Kind == netlist.KindLUT {
				luts = append(luts, c.Name)
			}
		}
		npi := len(golden.SortedPINames())
		stim := testgen.Repeat(testgen.ScalarBlocks(npi, 50, seed), 3)[:2*replayWindow+9]
		e := newTestEngine(t, golden, impl, 1)
		all, err := e.Enumerate([]string{luts[int(suspect)%len(luts)]}, stim)
		if err != nil {
			t.Fatal(err)
		}
		var cands []Candidate
		for i, c := range all {
			if subset>>uint(i%64)&1 != 0 {
				cands = append(cands, c)
			}
		}
		if len(cands) == 0 {
			return
		}
		serial, err := e.SerialValidate(cands, stim)
		if err != nil {
			t.Fatal(err)
		}
		checkModesAgree(t, e, cands, stim, serial)
	})
}

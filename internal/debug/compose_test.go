package debug

import (
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
)

// composeFixture compiles one catalog design and builds its syndrome
// composition dictionary under a fixed stimulus.
func composeFixture(t *testing.T, name string) (*sim.Machine, *SyndromeDict, faults.ScanConfig) {
	t.Helper()
	info, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := synth.TechMap(info.Build())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sim.Compile(mapped)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.ScanConfig{Patterns: 48, Cycles: 2, Seed: 31}
	dict, err := BuildSyndromeDict(prog, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dict.Detected == 0 {
		t.Fatalf("%s: dictionary indexes no detected faults", name)
	}
	return prog, dict, cfg
}

// TestClassifySingleExact: every detected single fault's own syndrome
// must classify as ClassSingle with the fault in the suspect set — and
// carry the MaybeMasked flag, because a pair whose partner is fully
// dominated is always an equally valid explanation.
func TestClassifySingleExact(t *testing.T) {
	_, dict, _ := composeFixture(t, "9sym")
	for _, r := range dict.Singles() {
		m := dict.Classify(r.Syndrome)
		if m.Class != ClassSingle {
			t.Fatalf("single %+v classified %v", r.Fault, m.Class)
		}
		if !m.MaybeMasked {
			t.Fatalf("single %+v missing MaybeMasked flag", r.Fault)
		}
		found := false
		for _, f := range m.Singles {
			if f == r.Fault {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("single %+v not in its own suspect set", r.Fault)
		}
	}
}

// TestDiagnosePairsProbeFree is the tentpole acceptance property at
// package scope: across a sampled pair universe, most detected pairs
// whose signature is not a single's must decode through XOR composition
// and be confirmed in simulation (exact signature reproduced by a lane
// pair scan) — zero probe rounds. Pairs that collapse onto a single
// signature must be flagged MaybeMasked, never misclassified as some
// wrong pair.
func TestDiagnosePairsProbeFree(t *testing.T) {
	prog, dict, cfg := composeFixture(t, "c880")
	nl := prog.Netlist()
	pu := faults.PairUniverse(nl, faults.Universe(nl), faults.PairConfig{
		MaxPairs: 128, Seed: 41, Singles: dict.Singles(),
	})
	res, err := faults.PairScan(prog, pu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	detected, confirmed, masked, unknown := 0, 0, 0, 0
	for _, r := range res {
		if !r.Detected {
			continue
		}
		detected++
		m, err := dict.Diagnose(prog, r.Syndrome)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case m.Class == ClassPair && m.Confirmed:
			confirmed++
			// The confirmed front of the ranking reproduces the exact
			// signature — the injected pair must be among the candidates
			// (it trivially reproduces its own signature), possibly as an
			// equivalent pair; what we require is a non-empty confirmed set.
			if len(m.Pairs) == 0 {
				t.Fatalf("confirmed diagnosis with empty pair list for %+v", r.Pair)
			}
		case m.Class == ClassSingle:
			if !m.MaybeMasked {
				t.Fatalf("pair %+v collapsed to a single without the masked flag", r.Pair)
			}
			masked++
		case m.Class == ClassUnknown:
			unknown++
		}
	}
	if detected == 0 {
		t.Fatal("no pair detected")
	}
	rate := float64(confirmed) / float64(detected)
	t.Logf("c880 pairs: detected %d, confirmed %d (%.0f%%), masked-as-single %d, unknown %d",
		detected, confirmed, 100*rate, masked, unknown)
	if rate < 0.70 {
		t.Fatalf("probe-free pair diagnosis rate %.2f below the 0.70 acceptance bar", rate)
	}
}

// TestMaskedPairFlaggedNotMisclassified constructs explicitly dominated
// pairs: fault B inside the cone that fault A's stuck-at already
// flattens. The pair's syndrome equals A's alone; the classifier must
// answer ClassSingle + MaybeMasked with A's equivalence class — never
// ClassPair with a fabricated partner.
func TestMaskedPairFlaggedNotMisclassified(t *testing.T) {
	prog, dict, cfg := composeFixture(t, "9sym")
	nl := prog.Netlist()
	singles := dict.Singles()
	checked := 0
	for _, ra := range singles {
		if checked >= 8 {
			break
		}
		a := ra.Fault
		if a.Kind != faults.StuckAt0 && a.Kind != faults.StuckAt1 {
			continue
		}
		// A LUT-bit-flip on the driver of the stuck net is fully
		// dominated: the stuck-at overrides the driver's output entirely.
		d := nl.Nets[a.Net].Driver
		if d == netlist.NilCell || nl.Cells[d].Dead || nl.Cells[d].Kind != netlist.KindLUT {
			continue
		}
		b := faults.Fault{Kind: faults.LUTBitFlip, Cell: d, Bit: 0}
		pres, err := faults.PairScan(prog, []faults.Pair{{A: a, B: b}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr := pres[0]
		if !pr.Detected || pr.Signature != ra.Signature {
			// Domination only holds when the flip reaches the outputs
			// nowhere else; skip pairs where it leaks.
			continue
		}
		checked++
		m := dict.Classify(pr.Syndrome)
		if m.Class != ClassSingle {
			t.Fatalf("dominated pair {%+v, %+v} classified %v, want single", a, b, m.Class)
		}
		if !m.MaybeMasked {
			t.Fatalf("dominated pair {%+v, %+v} missing MaybeMasked", a, b)
		}
		foundA := false
		for _, f := range m.Singles {
			if f == a {
				foundA = true
			}
		}
		if !foundA {
			t.Fatalf("dominated pair {%+v, %+v}: dominant fault not in suspect set", a, b)
		}
	}
	if checked == 0 {
		t.Skip("no fully dominated pair constructible on this design")
	}
}

// TestClassifyUnknownFallsThrough: an undetected syndrome and a
// syndrome unexplainable by any single or composition must both come
// back ClassUnknown — the caller's cue to fall back to probe rounds.
func TestClassifyUnknownFallsThrough(t *testing.T) {
	_, dict, _ := composeFixture(t, "9sym")
	if m := dict.Classify(faults.Syndrome{}); m.Class != ClassUnknown {
		t.Fatalf("undetected syndrome classified %v", m.Class)
	}
	y := faults.Syndrome{
		Detected:   true,
		FirstCycle: 1,
		Mismatches: 3,
		Signature:  0xdeadbeefcafef00d,
		XorSig:     0x1357924680531642,
		POMask:     1,
	}
	if m := dict.Classify(y); m.Class == ClassSingle {
		t.Fatalf("fabricated syndrome matched a single exactly: %+v", m)
	}
}

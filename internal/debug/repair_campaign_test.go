package debug

import (
	"errors"
	"slices"
	"testing"
	"time"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/repair"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
)

// TestRepairCampaignMeetsBars runs the repair campaign on 9sym: a stride
// sample of the single faults the dictionary localizes probe-free is
// injected, detected, localized by dictionary lookup and repaired by
// candidate search, with the golden design as a behavioural oracle only.
// At least 90% of the attempts must end repaired and ECO-verified, and
// lane-parallel candidate validation must beat the serial
// clone+recompile baseline on the same candidates.
func TestRepairCampaignMeetsBars(t *testing.T) {
	const words, cycles, seed, maxFaults = 4, 2, 1, 10
	info, err := bench.ByName("9sym")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := synth.TechMap(info.Build())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sim.Compile(golden)
	if err != nil {
		t.Fatal(err)
	}
	dict, err := BuildFaultDict(prog, words, cycles, seed)
	if err != nil {
		t.Fatal(err)
	}

	// Localizable faults: injectable (a LUT-bit flip, or a stuck-at on a
	// LUT-driven net), detected under the dictionary stimulus, in a
	// signature class of at most DefaultDictMaxSuspects cells.
	stim := DictStimulus(len(prog.PIOrder()), words, cycles, seed)
	results, err := faults.ScanStim(prog, faults.Universe(golden), stim, nil)
	if err != nil {
		t.Fatal(err)
	}
	classCells := make(map[uint64]map[string]bool)
	for _, r := range results {
		if !r.Detected {
			continue
		}
		if classCells[r.Signature] == nil {
			classCells[r.Signature] = map[string]bool{}
		}
		if name, ok := r.Fault.SuspectCell(golden); ok {
			classCells[r.Signature][name] = true
		}
	}
	injectable := func(f faults.Fault) bool {
		if f.Kind == faults.LUTBitFlip {
			return true
		}
		dr := golden.Nets[f.Net].Driver
		return (f.Kind == faults.StuckAt0 || f.Kind == faults.StuckAt1) &&
			dr != netlist.NilCell && golden.Cells[dr].Kind == netlist.KindLUT
	}
	var localizable []faults.Fault
	for _, r := range results {
		if n := len(classCells[r.Signature]); r.Detected && injectable(r.Fault) && n >= 1 && n <= DefaultDictMaxSuspects {
			localizable = append(localizable, r.Fault)
		}
	}
	sample := localizable
	if len(sample) > maxFaults {
		sample = nil
		for i := 0; i < len(localizable) && len(sample) < maxFaults; i += len(localizable) / maxFaults {
			sample = append(sample, localizable[i])
		}
	}

	pristine, err := core.BuildMapped(golden.Clone(), core.Spec{
		Overhead: 0.20, TileFrac: 0.25, Seed: seed, PlaceEffort: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	attempted, repaired := 0, 0
	var benchImpl *netlist.Netlist
	var benchSuspects []string
	for _, f := range sample {
		restore, ok := applyDictFault(pristine.NL, golden, f)
		if !ok {
			continue
		}
		impl := pristine.Clone()
		restore()
		sess, err := NewSession(golden, impl, seed)
		if err != nil {
			t.Fatal(err)
		}
		sess.Dict = dict
		sess.SetGoldenMachine(prog.Fork())
		det, err := sess.Detect(words, cycles)
		if err != nil {
			t.Fatal(err)
		}
		if !det.Failed {
			continue
		}
		diag, err := sess.LocalizeDict(det, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if benchImpl == nil {
			benchImpl, benchSuspects = impl.NL.Clone(), diag.Suspects
		}
		attempted++
		cor, err := sess.RepairWith(diag, det, nil)
		if errors.Is(err, ErrRepairInconclusive) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if cor.Repaired && cor.Verified && cor.ECOVerified {
			repaired++
		}
	}
	t.Logf("repaired %d of %d attempted faults", repaired, attempted)
	if attempted < 5 {
		t.Fatalf("only %d faults attempted — sample too small to be meaningful", attempted)
	}
	if rate := float64(repaired) / float64(attempted); rate < 0.9 {
		t.Errorf("repair rate %.0f%% below the 90%% bar (%d/%d)", 100*rate, repaired, attempted)
	}

	// Validation throughput on the first attempted fault, with the
	// suspect pool padded to 24 LUTs so both sides time several lane
	// batches.
	implProg, err := sim.Compile(benchImpl)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repair.NewEngine(prog, implProg)
	if err != nil {
		t.Fatal(err)
	}
	pool := append([]string(nil), benchSuspects...)
	for ci := range benchImpl.Cells {
		c := &benchImpl.Cells[ci]
		if len(pool) >= 24 {
			break
		}
		if !c.Dead && c.Kind == netlist.KindLUT && len(c.Fanin) <= 4 && !slices.Contains(pool, c.Name) {
			pool = append(pool, c.Name)
		}
	}
	cands, err := eng.Enumerate(pool, stim)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates enumerated")
	}
	if _, _, err := eng.Validate(cands[:min(len(cands), 64)], stim, nil); err != nil { // warm
		t.Fatal(err)
	}
	start := time.Now()
	lane, _, err := eng.Validate(cands, stim, nil)
	if err != nil {
		t.Fatal(err)
	}
	laneWall := time.Since(start)
	start = time.Now()
	serial, err := eng.SerialValidate(cands, stim)
	if err != nil {
		t.Fatal(err)
	}
	serialWall := time.Since(start)
	for i := range cands {
		if lane[i] != serial[i] {
			t.Fatalf("surviving-candidate sets diverge at %d (%s)", i, cands[i].Describe())
		}
	}
	t.Logf("%d candidates: lane %v, serial %v", len(cands), laneWall, serialWall)
	if laneWall >= serialWall {
		t.Errorf("lane-parallel validation (%v) not faster than serial (%v) over %d candidates",
			laneWall, serialWall, len(cands))
	}
}

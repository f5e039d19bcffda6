package debug

import (
	"math/rand"
	"testing"

	"fpgadbg/internal/core"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/synth"
)

// mappedDesign builds and tech-maps a deterministic random design.
func mappedDesign(t testing.TB, nodes int, seed int64) *netlist.Netlist {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nl := netlist.New("dut")
	var nets []netlist.NetID
	for i := 0; i < 8; i++ {
		nets = append(nets, nl.AddPI(""))
	}
	for i := 0; i < nodes; i++ {
		k := 2 + r.Intn(3)
		fanin := make([]netlist.NetID, k)
		for j := range fanin {
			fanin[j] = nets[r.Intn(len(nets))]
		}
		out := nl.AddNet("")
		if r.Intn(8) == 0 {
			nl.MustAddDFF("", fanin[0], out, 0)
		} else {
			cov := logic.Cover{N: k}
			for c := 0; c < 1+r.Intn(3); c++ {
				var cu logic.Cube
				for v := 0; v < k; v++ {
					switch r.Intn(3) {
					case 0:
						cu = cu.WithLit(v, false)
					case 1:
						cu = cu.WithLit(v, true)
					}
				}
				cov.Cubes = append(cov.Cubes, cu)
			}
			nl.MustAddLUT("", cov, fanin, out)
		}
		nets = append(nets, out)
	}
	for i := 0; i < 6; i++ {
		nl.MarkPO(nets[len(nets)-1-i*2])
	}
	mapped, err := synth.TechMap(nl)
	if err != nil {
		t.Fatal(err)
	}
	return mapped
}

// session builds golden + buggy layout with one injected error.
func session(t testing.TB, seed int64) (*Session, *faults.Injection) {
	t.Helper()
	golden := mappedDesign(t, 300, 4242)
	impl := golden.Clone()
	inj, err := faults.InjectRandom(impl, seed)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := core.BuildMapped(impl, core.Spec{Seed: seed, PlaceEffort: 0.25, TileFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(golden, lay, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s, inj
}

func TestDetectFindsInjectedError(t *testing.T) {
	s, inj := session(t, 1)
	det, err := s.Detect(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Failed {
		t.Skipf("injected error %v not excited by 512 random patterns", inj)
	}
	if len(det.FailingOutputs) == 0 || len(det.Stimulus) == 0 {
		t.Fatal("failure detected but no evidence recorded")
	}
}

func TestDetectPassesOnCleanDesign(t *testing.T) {
	golden := mappedDesign(t, 200, 99)
	impl := golden.Clone()
	lay, err := core.BuildMapped(impl, core.Spec{Seed: 3, PlaceEffort: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(golden, lay, 3)
	if err != nil {
		t.Fatal(err)
	}
	det, err := s.Detect(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if det.Failed {
		t.Fatalf("clean design failed detection: %v", det.FailingOutputs)
	}
}

func TestLocalizeSoundAndPhysical(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		s, inj := session(t, seed)
		det, err := s.Detect(8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !det.Failed {
			continue
		}
		diag, err := s.Localize(det, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Soundness: the injected site is always among the suspects.
		found := false
		for _, name := range diag.Suspects {
			if name == inj.CellName {
				found = true
			}
		}
		if !found {
			t.Fatalf("seed %d: suspect set %v misses injected %v", seed, diag.Suspects, inj)
		}
		// Localization paid real, tile-local physical effort.
		if diag.Probes == 0 || diag.Effort.Work() == 0 {
			t.Fatalf("seed %d: no observation logic physically inserted", seed)
		}
		if err := s.Layout.Check(); err != nil {
			t.Fatalf("seed %d: layout invalid after localization: %v", seed, err)
		}
		return // one full positive case is enough
	}
	t.Skip("no seed excited its injected error")
}

func TestCorrectRepairsDesign(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s, _ := session(t, seed)
		det, err := s.Detect(8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !det.Failed {
			continue
		}
		diag, err := s.Localize(det, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		cor, err := s.correctFromGolden(diag, det)
		if err != nil {
			t.Fatal(err)
		}
		if !cor.Verified {
			t.Fatalf("seed %d: correction did not verify (fixed %v)", seed, cor.Fixed)
		}
		if cor.Repaired {
			t.Fatal("golden-copy correction must not claim a candidate-search repair")
		}
		if len(cor.Fixed) == 0 {
			t.Fatal("nothing was fixed")
		}
		if err := s.Layout.Check(); err != nil {
			t.Fatalf("layout invalid after correction: %v", err)
		}
		return
	}
	t.Skip("no seed excited its injected error")
}

func TestRunLoopEndToEnd(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s, _ := session(t, seed)
		det, err := s.Detect(8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !det.Failed {
			continue
		}
		rep, err := s.RunLoopCore(3, 8, 4, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		full, err := s.Layout.FullRePlaceRoute(s.Seed + 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean {
			t.Fatalf("seed %d: loop did not converge", seed)
		}
		if rep.Iterations < 1 {
			t.Fatal("no iterations recorded")
		}
		// The paper's claim: per-campaign tile effort stays below a single
		// full re-place-and-route times the iteration count.
		if rep.TileEffort.Work() >= full.Work()*float64(rep.Iterations+1) {
			t.Fatalf("tiling effort %v not competitive with full %v", rep.TileEffort, full)
		}
		return
	}
	t.Skip("no seed excited its injected error")
}

func TestLocalizeRejectsCleanDetection(t *testing.T) {
	s, _ := session(t, 1)
	if _, err := s.Localize(&Detection{Failed: false}, 2, 2); err == nil {
		t.Fatal("clean detection accepted")
	}
}

// TestCampaignRollbackRestoresPristine drives a whole debug campaign —
// detection, localization (with physical probe insertion), correction —
// inside one layout transaction and rolls it back, proving the journal
// restores the pristine state bit-identically. This is the contract the
// campaign service's layout pool relies on to reuse one layout across
// campaigns without cloning.
func TestCampaignRollbackRestoresPristine(t *testing.T) {
	golden := mappedDesign(t, 300, 4242)
	lay, err := core.BuildMapped(golden.Clone(), core.Spec{Seed: 5, PlaceEffort: 0.25, TileFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pristine := lay.StateDigest()

	cp := lay.Checkpoint()
	inj, err := faults.InjectRandom(lay.NL, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(golden, lay, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunLoopCore(3, 8, 4, 3, 4)
	if err != nil {
		t.Fatalf("campaign on %v: %v", inj, err)
	}
	if rep.Iterations == 0 {
		t.Skipf("injected error %v not excited", inj)
	}
	if lay.StateDigest() == pristine {
		t.Fatal("campaign did not change the layout")
	}
	if err := lay.Rollback(cp); err != nil {
		t.Fatal(err)
	}
	if got := lay.StateDigest(); got != pristine {
		t.Fatalf("rollback digest %s != pristine %s", got, pristine)
	}
	if err := core.VerifyLayout(lay); err != nil {
		t.Fatal(err)
	}

	// The rolled-back layout must support a fresh campaign.
	cp2 := lay.Checkpoint()
	if _, err := faults.InjectRandom(lay.NL, 3); err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(golden, lay, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.RunLoopCore(2, 4, 2, 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := lay.Rollback(cp2); err != nil {
		t.Fatal(err)
	}
	if got := lay.StateDigest(); got != pristine {
		t.Fatalf("second rollback digest %s != pristine %s", got, pristine)
	}
}

package core_test

import (
	"sort"
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/experiments"
	"fpgadbg/internal/synth"
)

// TestProbeRoundsOnCatalog runs localization-style probe rounds — the
// experiments.ProbeDelta change Figure 5 measures — on catalog designs
// and checks the transactional engine against its oracles on every
// round: the persistent router leaves the layout digest-identical to a
// fresh-router reference, and rolling the rounds back restores the
// pristine digest and passes VerifyLayout. The median round must also
// route with at most half the expansions of a from-scratch re-route (a
// deterministic count, not a timing).
func TestProbeRoundsOnCatalog(t *testing.T) {
	const rounds = 3
	for _, name := range []string{"9sym", "c880"} {
		info, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := synth.TechMap(info.Build())
		if err != nil {
			t.Fatal(err)
		}
		lay, err := core.BuildMapped(mapped, core.Spec{Overhead: 0.20, TileFrac: 0.10, Seed: 7, PlaceEffort: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		ref := lay.Clone()
		full, err := lay.FullRePlaceRoute(7 + 17)
		if err != nil {
			t.Fatal(err)
		}
		pristine := lay.StateDigest()

		// A bare checkpoint/rollback around one round restores the digest.
		cp := lay.Checkpoint()
		dl, err := experiments.ProbeDelta(lay, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lay.ApplyDelta(dl); err != nil {
			t.Fatal(err)
		}
		if err := lay.Rollback(cp); err != nil {
			t.Fatal(err)
		}
		if lay.StateDigest() != pristine {
			t.Fatalf("%s: rollback did not restore the layout", name)
		}

		outer := lay.Checkpoint()
		var incr []int64
		for r := 0; r < rounds; r++ {
			dl, err := experiments.ProbeDelta(lay, r)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := lay.ApplyDelta(dl)
			if err != nil {
				t.Fatalf("%s round %d: %v", name, r, err)
			}
			incr = append(incr, rep.Effort.RouteExpansions)
			dr, err := experiments.ProbeDelta(ref, r)
			if err != nil {
				t.Fatal(err)
			}
			ref.InvalidateRouter()
			if _, err := ref.ApplyDelta(dr); err != nil {
				t.Fatalf("%s round %d reference: %v", name, r, err)
			}
			if lay.StateDigest() != ref.StateDigest() {
				t.Fatalf("%s round %d: persistent router diverged from the fresh-router reference", name, r)
			}
		}
		if err := lay.Rollback(outer); err != nil {
			t.Fatal(err)
		}
		if lay.StateDigest() != pristine {
			t.Fatalf("%s: rolling back the rounds did not restore the pristine layout", name)
		}
		if err := core.VerifyLayout(lay); err != nil {
			t.Fatalf("%s after rollback: %v", name, err)
		}

		sort.Slice(incr, func(i, j int) bool { return incr[i] < incr[j] })
		med := incr[len(incr)/2]
		if med == 0 || full.RouteExpansions < 2*med {
			t.Errorf("%s: median round routes %d expansions against %d from scratch, want at most half",
				name, med, full.RouteExpansions)
		}
	}
}

package service

import (
	"context"
	"testing"
	"time"
)

// repairSpec is the smallest repair campaign the test designs support.
func repairSpec(faultSeed int64) Spec {
	return Spec{
		Design: "9sym", Kind: KindRepair, FaultSeed: faultSeed,
		PlaceEffort: 0.3, TileFrac: 0.25, Overhead: 0.35, Words: 4, Cycles: 2,
	}
}

// TestRepairCampaign submits repair campaigns until one repairs through
// the candidate search, then pins the search statistics, determinism and
// artifact caching of a resubmission.
func TestRepairCampaign(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	for seed := int64(1); seed <= 8; seed++ {
		id, err := svc.Submit(repairSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Detected {
			continue // error not excited; nothing to assert
		}
		if res.Repaired == 0 {
			// Wiring-shaped injections legitimately fall back.
			if !res.RepairFallback {
				t.Fatalf("seed %d: neither repaired nor fallback: %+v", seed, res)
			}
			continue
		}
		if res.RepairKind == "" || res.Candidates < 1 || res.Survivors < 1 || res.CandidateBatches < 1 {
			t.Fatalf("seed %d: missing search stats: %+v", seed, res)
		}
		if !res.ECOVerified || !res.Clean {
			t.Fatalf("seed %d: repair applied but not verified: %+v", seed, res)
		}
		if res.DictResolved != 1 {
			t.Fatalf("seed %d: repair campaign should dictionary-resolve 9sym single faults: %+v", seed, res)
		}

		// Determinism + caching: an identical resubmission must match the
		// digest and hit the layout and baseline the first run built.
		id2, err := svc.Submit(repairSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		res2, err := svc.Wait(ctx, id2)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Digest != res.Digest {
			t.Fatalf("repair campaign not deterministic: %s vs %s", res.Digest, res2.Digest)
		}
		if res2.CacheHits <= res.CacheHits {
			t.Fatalf("warm resubmission should hit more artifacts: %d vs %d", res2.CacheHits, res.CacheHits)
		}
		return
	}
	t.Skip("no seed produced a candidate-search repair")
}

// TestDigestCoversDictAndRepairAccounting pins that DictResolved and the
// repair-search fields participate in the result digest, so clients can
// rely on digest equality to mean identical accounting.
func TestDigestCoversDictAndRepairAccounting(t *testing.T) {
	base := &Result{
		Design: "9sym", Injected: "x", Detected: true, Clean: true,
		Iterations: 1, DictResolved: 1, Repaired: 1, RepairKind: "bit-flip",
		Candidates: 40, Survivors: 2, CandidateBatches: 3, ECOVerified: true,
	}
	ref := base.digest()
	perturb := []func(*Result){
		func(r *Result) { r.DictResolved = 0 },
		func(r *Result) { r.Repaired = 0 },
		func(r *Result) { r.RepairKind = "resynth" },
		func(r *Result) { r.Candidates = 41 },
		func(r *Result) { r.Survivors = 3 },
		func(r *Result) { r.CandidateBatches = 4 },
		func(r *Result) { r.ECOVerified = false },
		func(r *Result) { r.RepairFallback = true },
	}
	for i, mut := range perturb {
		cp := *base
		mut(&cp)
		if cp.digest() == ref {
			t.Errorf("perturbation %d did not change the digest", i)
		}
	}
}

// TestRepairSpecDefaults pins that the repair kind implies the fault
// dictionary and validates like the other kinds.
func TestRepairSpecDefaults(t *testing.T) {
	sp := Spec{Design: "9sym", Kind: KindRepair}.withDefaults()
	if !sp.UseDict {
		t.Fatal("repair kind must imply UseDict")
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Spec{Design: "9sym", Kind: "fixit"}).Validate(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

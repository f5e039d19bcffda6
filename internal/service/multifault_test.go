package service

import (
	"context"
	"testing"
	"time"
)

func modelSpec(design, model string) Spec {
	return Spec{Design: design, Kind: KindFaultScan, FaultModel: model, Patterns: 32, Cycles: 2}
}

func waitResult(t *testing.T, svc *Service, sp Spec) *Result {
	t.Helper()
	id, err := svc.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPairScanCampaign runs the pair fault model end to end: sampled
// pair universe, lane scan, dictionary diagnosis, digest determinism,
// and dictionary-artifact reuse on the warm run.
func TestPairScanCampaign(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	res := waitResult(t, svc, modelSpec("9sym", FaultModelPair))
	if res.FaultModel != FaultModelPair {
		t.Fatalf("result lost the fault model: %+v", res)
	}
	if res.PairsTotal == 0 || res.PairsDetected == 0 {
		t.Fatalf("pair scan found nothing: %+v", res)
	}
	if res.FaultsTotal != 2*res.PairsTotal {
		t.Fatalf("a pair carries two faults: total %d vs pairs %d", res.FaultsTotal, res.PairsTotal)
	}
	if res.FaultsDetected != 2*res.PairsDetected {
		t.Fatalf("a detected pair carries two faults: detected %d vs pairs %d", res.FaultsDetected, res.PairsDetected)
	}
	if res.PairsDiagnosed > res.PairsDetected || res.PairDiagRate < 0 || res.PairDiagRate > 1 {
		t.Fatalf("implausible diagnosis accounting: %+v", res)
	}

	res2 := waitResult(t, svc, modelSpec("9sym", FaultModelPair))
	if res2.Digest != res.Digest {
		t.Fatalf("pair campaign not deterministic: %s vs %s", res.Digest, res2.Digest)
	}
	if res2.CacheHits == 0 {
		t.Fatalf("warm pair campaign missed the artifact cache: %+v", res2)
	}

	// The model must be part of the result identity: the same spec under
	// the single model digests differently.
	single := waitResult(t, svc, modelSpec("9sym", FaultModelSingle))
	if single.Digest == res.Digest {
		t.Fatal("pair and single campaigns share a digest")
	}
}

// TestMultiFaultCampaignBars holds the multi-fault coverage floors on
// service campaigns over the two smallest catalog designs: at least 70%
// of detected fault pairs get a probe-free, simulation-exact verdict from
// the composition dictionary, and every model — pairs, windowed SEUs,
// interconnect — detects something. -v logs one row per campaign.
func TestMultiFaultCampaignBars(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	for _, design := range []string{"9sym", "c880"} {
		for _, model := range []string{FaultModelPair, FaultModelSEU, FaultModelInterconnect} {
			sp := modelSpec(design, model)
			sp.Patterns, sp.Seed = 64, 1
			res := waitResult(t, svc, sp)
			t.Logf("%-5s %-12s faults %d/%d pairs %d/%d resolved %.1f%% seu p50/p99 %.0f/%.0f masked %.3f",
				design, model, res.FaultsDetected, res.FaultsTotal, res.PairsDetected, res.PairsTotal,
				100*res.PairDiagRate, res.SEULatencyP50, res.SEULatencyP99, res.MaskedFraction)
			if res.FaultsDetected == 0 {
				t.Errorf("%s %s: the model detected nothing: %+v", design, model, res)
			}
			if model == FaultModelPair && res.PairDiagRate < 0.70 {
				t.Errorf("%s: probe-free pair resolution %.1f%% below the 70%% bar", design, 100*res.PairDiagRate)
			}
		}
	}
}

// TestSEUScanCampaign runs the transient model: windowed universe,
// latency percentiles measured from the arming edge, masked fraction
// against the permanent arms, digest determinism.
func TestSEUScanCampaign(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	res := waitResult(t, svc, modelSpec("9sym", FaultModelSEU))
	if res.FaultModel != FaultModelSEU {
		t.Fatalf("result lost the fault model: %+v", res)
	}
	if res.FaultsTotal == 0 || res.FaultsDetected == 0 {
		t.Fatalf("SEU scan found nothing: %+v", res)
	}
	if res.SEULatencyP50 < 1 || res.SEULatencyP99 < res.SEULatencyP50 {
		t.Fatalf("implausible latency percentiles: %+v", res)
	}
	if res.MaskedFraction < 0 || res.MaskedFraction > 1 {
		t.Fatalf("implausible masked fraction: %+v", res)
	}
	res2 := waitResult(t, svc, modelSpec("9sym", FaultModelSEU))
	if res2.Digest != res.Digest {
		t.Fatalf("SEU campaign not deterministic: %s vs %s", res.Digest, res2.Digest)
	}
}

// TestInterconnectScanCampaign runs the interconnect model: route
// stuck-ats plus bridges, with kind accounting and digest determinism.
func TestInterconnectScanCampaign(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	res := waitResult(t, svc, modelSpec("9sym", FaultModelInterconnect))
	if res.FaultModel != FaultModelInterconnect {
		t.Fatalf("result lost the fault model: %+v", res)
	}
	if res.RouteFaults == 0 || res.BridgeFaults == 0 {
		t.Fatalf("interconnect universe incomplete: %+v", res)
	}
	if res.FaultsTotal != res.RouteFaults+res.BridgeFaults {
		t.Fatalf("kind accounting wrong: %+v", res)
	}
	if res.FaultsDetected == 0 || res.FaultCoverage <= 0 {
		t.Fatalf("interconnect scan blind: %+v", res)
	}
	res2 := waitResult(t, svc, modelSpec("9sym", FaultModelInterconnect))
	if res2.Digest != res.Digest {
		t.Fatalf("interconnect campaign not deterministic: %s vs %s", res.Digest, res2.Digest)
	}
}

// TestFaultModelValidation pins the spec surface: unknown models are
// rejected, and a non-single model demands the faultscan kind.
func TestFaultModelValidation(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	if _, err := svc.Submit(Spec{Design: "9sym", Kind: KindFaultScan, FaultModel: "quantum"}); err == nil {
		t.Fatal("unknown fault model accepted")
	}
	if _, err := svc.Submit(Spec{Design: "9sym", Kind: KindDebug, FaultModel: FaultModelPair}); err == nil {
		t.Fatal("pair model accepted on a non-faultscan kind")
	}
	if _, err := svc.Submit(Spec{Design: "9sym", Kind: KindDebug, FaultModel: FaultModelSingle}); err != nil {
		t.Fatalf("explicit single model should be legal everywhere: %v", err)
	}
}

package service

// The faultscan campaign pipeline: fault-simulate a design's fault
// universe on the lane-parallel mutant engine (64·W mutants per replay
// at Spec.SimLanes lanes) and report detection coverage and latency.
// Spec.FaultModel picks the universe and the analysis: the exhaustive
// single-fault universe (default), sampled fault pairs diagnosed through
// the cached syndrome-composition dictionary, transient windowed SEUs
// with detection-latency percentiles and masking, or interconnect
// (bridging + route stuck-at) faults. Unlike debug campaigns it touches
// no layout — the only shared artifacts are the cached golden netlist +
// compiled simulator program (forked per campaign) and, for pair
// campaigns, the per-design syndrome dictionary.

import (
	"fmt"
	"sort"
	"time"

	"fpgadbg/internal/debug"
	"fpgadbg/internal/faults"
)

// faultScanEventEvery throttles per-batch progress events: one each time
// progress crosses a multiple of it.
const faultScanEventEvery = 32

// seuMaxFaults bounds the windowed-SEU sample per campaign: each sampled
// fault is scanned twice (transient + permanent arm), so the sample is
// half the effective batch budget of a single-model scan.
const seuMaxFaults = 512

// scanConfig builds the campaign's fault-scan configuration with
// cancellation and throttled progress events threaded through.
func (r *run) scanConfig(stage string) faults.ScanConfig {
	spec, ctx, c := r.spec, r.ctx, r.c
	last := 0
	return faults.ScanConfig{
		Patterns: spec.Patterns,
		Cycles:   spec.Cycles,
		Seed:     spec.Seed,
		Obs:      r.tr,
		// done counts the universe's batches: it can repeat or skip
		// ahead, since faults the golden run never excites, and faults
		// settled early, need no batch of their own.
		OnBatch: func(done, total int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if done/faultScanEventEvery > last/faultScanEventEvery && done < total {
				c.appendEvent(stage, done, "batch %d/%d scanned", done, total)
			}
			last = done
			return nil
		},
	}
}

// faultScan is the faultscan kind's body, run against the cached golden
// artifact and dispatched on the spec's fault model. Cancellation is
// honored between lane batches.
func (r *run) faultScan() error {
	r.enter("faultscan")
	r.res.FaultModel = r.spec.FaultModel
	switch r.spec.FaultModel {
	case FaultModelPair:
		return r.pairScan()
	case FaultModelSEU:
		return r.seuScan()
	case FaultModelInterconnect:
		// Route stuck-ats on every LUT pin plus a seeded bridge sample.
		iu, err := faults.InterconnectUniverse(r.ga.golden, faults.InterconnectConfig{Seed: r.spec.Seed})
		if err != nil {
			return err
		}
		for _, f := range iu {
			if f.Kind == faults.BridgeAND || f.Kind == faults.BridgeOR {
				r.res.BridgeFaults++
			} else {
				r.res.RouteFaults++
			}
		}
		_, err = r.detectScan("interconnect", iu, r.res)
		return err
	default:
		// The classic exhaustive single-fault universe.
		_, err := r.detectScan("faultscan", faults.Universe(r.ga.golden), r.res)
		return err
	}
}

// detectScan is the one detection-scan body: it scans universe u on the
// lane engine under stage's progress events, tallies the universe, its
// batches and the per-fault outcomes into res, and returns the outcomes.
func (r *run) detectScan(stage string, u []faults.Fault, res *Result) ([]faults.Detection, error) {
	lanes := r.ga.mach.Lanes()
	batches := (len(u) + lanes - 1) / lanes
	r.c.appendEvent(stage, 0, "universe: %d faults in %d batches of %d (%d patterns x %d cycles)",
		len(u), batches, lanes, r.spec.Patterns, r.spec.Cycles)
	start := time.Now()
	results, err := faults.Detect(r.ga.mach, u, r.scanConfig(stage))
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	res.FaultsTotal = len(u)
	res.FaultBatches += batches
	latSum, unexcited := 0, 0
	for _, d := range results {
		if d.Unexcited {
			unexcited++
		}
		if d.Detected {
			res.FaultsDetected++
			latSum += d.FirstCycle + 1
		}
	}
	res.Detected = res.FaultsDetected > 0
	if len(results) > 0 {
		res.FaultCoverage = float64(res.FaultsDetected) / float64(len(results))
	}
	if res.FaultsDetected > 0 {
		res.MeanLatencyCycles = float64(latSum) / float64(res.FaultsDetected)
	}
	if sec := wall.Seconds(); sec > 0 {
		res.FaultsPerSec = float64(len(results)) / sec
	}
	r.c.appendEvent(stage, batches, "done: %d/%d detected (%.1f%%), %d never excited, mean latency %.1f cycles, %.0f faults/sec",
		res.FaultsDetected, len(u), 100*res.FaultCoverage, unexcited, res.MeanLatencyCycles, res.FaultsPerSec)
	return results, nil
}

// syndromeDict returns the design's syndrome-composition dictionary,
// built once per (fingerprint, scan stimulus) and cached.
func (r *run) syndromeDict() (*debug.SyndromeDict, error) {
	spec, ga := r.spec, r.ga
	key := fmt.Sprintf("syndict/%s/p%d-c%d-s%d", ga.fp, spec.Patterns, spec.Cycles, spec.Seed)
	v, how, err := r.artifact(key, func() (any, int64, error) {
		d, err := debug.BuildSyndromeDict(ga.mach, nil, faults.ScanConfig{
			Patterns: spec.Patterns, Cycles: spec.Cycles, Seed: spec.Seed, Obs: r.tr,
		})
		if err != nil {
			return nil, 0, err
		}
		return d, d.MemoryFootprint(), nil
	})
	if err != nil {
		return nil, err
	}
	d := v.(*debug.SyndromeDict)
	r.c.appendEvent("dict", 0, "syndrome dictionary: %d/%d singles detectable, %d signatures (%s)",
		d.Detected, d.Faults, d.Signatures(), how)
	return d, nil
}

// pairScan scans a sampled, suspect-ranked pair universe lane-packed
// (one pair per lane) and diagnoses every detected composed syndrome
// through the syndrome-composition dictionary: a diagnosis counts as
// probe-free when a decoded candidate pair reproduces the exact observed
// signature in the verification scan.
func (r *run) pairScan() error {
	spec, ga, res := r.spec, r.ga, r.res
	dict, err := r.syndromeDict()
	if err != nil {
		return err
	}
	pu := faults.PairUniverse(ga.golden, faults.Universe(ga.golden), faults.PairConfig{
		Seed: spec.Seed, Singles: dict.Singles(),
	})
	lanes := ga.mach.Lanes()
	batches := (len(pu) + lanes - 1) / lanes
	r.c.appendEvent("pairscan", 0, "pair universe: %d sampled pairs in %d batches of %d lanes (one pair per lane)",
		len(pu), batches, lanes)
	scanStart := time.Now()
	prs, err := faults.PairScan(ga.mach, pu, r.scanConfig("pairscan"))
	if err != nil {
		return err
	}
	wall := time.Since(scanStart)
	res.FaultsTotal = 2 * len(pu)
	res.FaultBatches = batches
	res.PairsTotal = len(pu)
	masked := 0
	for _, p := range prs {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if !p.Detected {
			continue
		}
		res.PairsDetected++
		m, err := dict.Diagnose(ga.mach, p.Syndrome)
		if err != nil {
			return err
		}
		switch {
		case m.Class == debug.ClassPair && m.Confirmed:
			res.PairsDiagnosed++
		case m.Class == debug.ClassSingle && m.MaybeMasked:
			masked++
		}
	}
	res.Detected = res.PairsDetected > 0
	res.FaultsDetected = 2 * res.PairsDetected
	if len(pu) > 0 {
		res.FaultCoverage = float64(res.PairsDetected) / float64(len(pu))
		res.MaskedFraction = float64(masked) / float64(len(pu))
	}
	if res.PairsDetected > 0 {
		// The probe-free resolution rate: confirmed pair diagnoses plus
		// masked-pair verdicts (exact single-signature matches, a sound
		// resolution naming the dominant fault) over detected pairs.
		res.PairDiagRate = float64(res.PairsDiagnosed+masked) / float64(res.PairsDetected)
	}
	if sec := wall.Seconds(); sec > 0 {
		res.FaultsPerSec = float64(2*len(pu)) / sec
	}
	r.c.appendEvent("pairscan", batches,
		"done: %d/%d pairs detected, %d diagnosed probe-free (%.1f%%), %d masked to a single",
		res.PairsDetected, len(pu), res.PairsDiagnosed, 100*res.PairDiagRate, masked)
	return nil
}

// seuScan arms a stride sample of the single-fault universe only for
// transient cycle windows and scans transient and permanent arms of each
// site, reporting detection-latency percentiles from the arming edge and
// the fraction of upsets the window masked. The result counts the
// windowed faults and the batches of both arms.
func (r *run) seuScan() error {
	spec, res := r.spec, r.res
	cycles := spec.Patterns * spec.Cycles
	wu := faults.WindowUniverse(faults.Universe(r.ga.golden), cycles, 2*spec.Cycles, seuMaxFaults, spec.Seed)
	perm := make([]faults.Fault, len(wu))
	for i, f := range wu {
		f.From, f.To = 0, 0
		perm[i] = f
	}
	wres, err := r.detectScan("seuscan", wu, res)
	if err != nil {
		return err
	}
	var permRes Result
	pres, err := r.detectScan("seuscan", perm, &permRes)
	if err != nil {
		return err
	}
	res.FaultBatches += permRes.FaultBatches
	var lat []float64
	masked, permDetected := 0, 0
	for i, w := range wres {
		if pres[i].Detected {
			permDetected++
			if !w.Detected {
				masked++
			}
		}
		if w.Detected {
			lat = append(lat, float64(w.FirstCycle-int(wu[i].From)+1))
		}
	}
	res.SEULatencyP50, res.SEULatencyP99 = percentiles(lat)
	if permDetected > 0 {
		res.MaskedFraction = float64(masked) / float64(permDetected)
	}
	r.c.appendEvent("seuscan", res.FaultBatches,
		"%d-cycle upset windows: latency p50 %.0f / p99 %.0f cycles, %.1f%% masked by the window",
		2*spec.Cycles, res.SEULatencyP50, res.SEULatencyP99, 100*res.MaskedFraction)
	return nil
}

// percentiles returns the p50 and p99 of xs (0, 0 when empty).
func percentiles(xs []float64) (p50, p99 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	at := func(q float64) float64 {
		i := int(q * float64(len(xs)-1))
		return xs[i]
	}
	return at(0.50), at(0.99)
}

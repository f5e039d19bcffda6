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
	"context"
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
func (s *Service) scanConfig(ctx context.Context, c *campaign, stage string) faults.ScanConfig {
	spec := c.spec
	last := 0
	return faults.ScanConfig{
		Patterns: spec.Patterns,
		Cycles:   spec.Cycles,
		Seed:     spec.Seed,
		Obs:      c.trace,
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

// scanTally folds shared per-fault outcome statistics into res and
// returns how many faults the golden run never excited.
func scanTally(res *Result, results []faults.Detection, wall time.Duration) (unexcited int) {
	latSum := 0
	for _, r := range results {
		if r.Unexcited {
			unexcited++
		}
		if !r.Detected {
			continue
		}
		res.FaultsDetected++
		latSum += r.FirstCycle + 1
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
	return unexcited
}

// runFaultScan executes one faultscan campaign against the cached golden
// artifact, dispatching on the spec's fault model. Cancellation is
// honored between lane batches. count is the campaign's cache-outcome
// tally (pair campaigns consult the syndrome-dictionary cache).
func (s *Service) runFaultScan(ctx context.Context, c *campaign, ga *goldenArtifact, count func(bool) string) (*Result, error) {
	switch c.spec.FaultModel {
	case FaultModelPair:
		return s.runPairScan(ctx, c, ga, count)
	case FaultModelSEU:
		return s.runSEUScan(ctx, c, ga)
	case FaultModelInterconnect:
		return s.runInterconnectScan(ctx, c, ga)
	default:
		return s.runSingleScan(ctx, c, ga)
	}
}

// runSingleScan is the classic exhaustive single-fault universe scan.
func (s *Service) runSingleScan(ctx context.Context, c *campaign, ga *goldenArtifact) (*Result, error) {
	spec := c.spec
	u := faults.Universe(ga.golden)
	lanes := ga.mach.Lanes()
	batches := (len(u) + lanes - 1) / lanes
	c.appendEvent("faultscan", 0, "universe: %d faults in %d batches of %d (%d patterns x %d cycles)",
		len(u), batches, lanes, spec.Patterns, spec.Cycles)
	cfg := s.scanConfig(ctx, c, "faultscan")
	scanStart := time.Now()
	results, err := faults.Detect(ga.mach, u, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Design:       spec.Design,
		FaultModel:   FaultModelSingle,
		FaultsTotal:  len(u),
		FaultBatches: batches,
	}
	unexcited := scanTally(res, results, time.Since(scanStart))
	c.appendEvent("faultscan", batches, "done: %d/%d detected (%.1f%%), %d never excited, mean latency %.1f cycles, %.0f faults/sec",
		res.FaultsDetected, len(u), 100*res.FaultCoverage, unexcited, res.MeanLatencyCycles, res.FaultsPerSec)
	return res, nil
}

// syndromeDict returns the design's syndrome-composition dictionary,
// built once per (fingerprint, scan stimulus) and cached.
func (s *Service) syndromeDict(c *campaign, ga *goldenArtifact, count func(bool) string) (*debug.SyndromeDict, error) {
	spec := c.spec
	key := fmt.Sprintf("syndict/%s/p%d-c%d-s%d", ga.fp, spec.Patterns, spec.Cycles, spec.Seed)
	v, hit, err := s.cache.GetOrBuild(key, func() (any, int64, error) {
		d, err := debug.BuildSyndromeDict(ga.mach, nil, faults.ScanConfig{
			Patterns: spec.Patterns, Cycles: spec.Cycles, Seed: spec.Seed, Obs: c.trace,
		})
		if err != nil {
			return nil, 0, err
		}
		return d, d.MemoryFootprint(), nil
	})
	if err != nil {
		return nil, fmt.Errorf("syndrome dict %s: %w", spec.Design, err)
	}
	d := v.(*debug.SyndromeDict)
	c.appendEvent("dict", 0, "syndrome dictionary: %d/%d singles detectable, %d signatures (%s)",
		d.Detected, d.Faults, d.Signatures(), count(hit))
	return d, nil
}

// runPairScan scans a sampled, suspect-ranked pair universe lane-packed
// (one pair per lane) and diagnoses every detected composed syndrome
// through the syndrome-composition dictionary: a diagnosis counts as
// probe-free when a decoded candidate pair reproduces the exact observed
// signature in the verification scan.
func (s *Service) runPairScan(ctx context.Context, c *campaign, ga *goldenArtifact, count func(bool) string) (*Result, error) {
	spec := c.spec
	dict, err := s.syndromeDict(c, ga, count)
	if err != nil {
		return nil, err
	}
	pu := faults.PairUniverse(ga.golden, faults.Universe(ga.golden), faults.PairConfig{
		Seed: spec.Seed, Singles: dict.Singles(),
	})
	lanes := ga.mach.Lanes()
	batches := (len(pu) + lanes - 1) / lanes
	c.appendEvent("pairscan", 0, "pair universe: %d sampled pairs in %d batches of %d lanes (one pair per lane)",
		len(pu), batches, lanes)
	cfg := s.scanConfig(ctx, c, "pairscan")
	scanStart := time.Now()
	prs, err := faults.PairScan(ga.mach, pu, cfg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(scanStart)
	res := &Result{
		Design:       spec.Design,
		FaultModel:   FaultModelPair,
		FaultsTotal:  2 * len(pu),
		FaultBatches: batches,
		PairsTotal:   len(pu),
	}
	masked := 0
	for _, r := range prs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !r.Detected {
			continue
		}
		res.PairsDetected++
		m, err := dict.Diagnose(ga.mach, r.Syndrome)
		if err != nil {
			return nil, err
		}
		switch {
		case m.Class == debug.ClassPair && m.Confirmed:
			res.PairsDiagnosed++
		case m.Class == debug.ClassSingle && m.MaybeMasked:
			masked++
		}
	}
	res.Detected = res.PairsDetected > 0
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
	c.appendEvent("pairscan", batches,
		"done: %d/%d pairs detected, %d diagnosed probe-free (%.1f%%), %d masked to a single",
		res.PairsDetected, len(pu), res.PairsDiagnosed, 100*res.PairDiagRate, masked)
	return res, nil
}

// runSEUScan arms a stride sample of the single-fault universe only for
// transient cycle windows and scans transient and permanent arms of each
// site, reporting detection-latency percentiles from the arming edge and
// the fraction of upsets the window masked.
func (s *Service) runSEUScan(ctx context.Context, c *campaign, ga *goldenArtifact) (*Result, error) {
	spec := c.spec
	u := faults.Universe(ga.golden)
	cycles := spec.Patterns * spec.Cycles
	winLen := 2 * spec.Cycles
	wu := faults.WindowUniverse(u, cycles, winLen, seuMaxFaults, spec.Seed)
	perm := make([]faults.Fault, len(wu))
	for i, f := range wu {
		f.From, f.To = 0, 0
		perm[i] = f
	}
	lanes := ga.mach.Lanes()
	batches := 2 * ((len(wu) + lanes - 1) / lanes)
	c.appendEvent("seuscan", 0, "windowed universe: %d faults, %d-cycle windows in a %d-cycle stimulus (plus permanent arms)",
		len(wu), winLen, cycles)
	scanStart := time.Now()
	wres, err := faults.Detect(ga.mach, wu, s.scanConfig(ctx, c, "seuscan"))
	if err != nil {
		return nil, err
	}
	pres, err := faults.Detect(ga.mach, perm, s.scanConfig(ctx, c, "seuscan"))
	if err != nil {
		return nil, err
	}
	res := &Result{
		Design:       spec.Design,
		FaultModel:   FaultModelSEU,
		FaultsTotal:  len(wu),
		FaultBatches: batches,
	}
	unexcited := scanTally(res, wres, time.Since(scanStart))
	var lat []float64
	masked, permDetected := 0, 0
	for i, r := range wres {
		if pres[i].Detected {
			permDetected++
			if !r.Detected {
				masked++
			}
		}
		if r.Detected {
			lat = append(lat, float64(r.FirstCycle-int(wu[i].From)+1))
		}
	}
	res.SEULatencyP50, res.SEULatencyP99 = percentiles(lat)
	if permDetected > 0 {
		res.MaskedFraction = float64(masked) / float64(permDetected)
	}
	c.appendEvent("seuscan", batches,
		"done: %d/%d windowed upsets detected, %d never excited, latency p50 %.0f / p99 %.0f cycles, %.1f%% masked by the window",
		res.FaultsDetected, len(wu), unexcited, res.SEULatencyP50, res.SEULatencyP99, 100*res.MaskedFraction)
	return res, nil
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

// runInterconnectScan scans the interconnect fault universe: route
// stuck-ats on every LUT pin plus a seeded bridge sample.
func (s *Service) runInterconnectScan(ctx context.Context, c *campaign, ga *goldenArtifact) (*Result, error) {
	spec := c.spec
	iu, err := faults.InterconnectUniverse(ga.golden, faults.InterconnectConfig{Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	routes, bridges := 0, 0
	for _, f := range iu {
		if f.Kind == faults.BridgeAND || f.Kind == faults.BridgeOR {
			bridges++
		} else {
			routes++
		}
	}
	lanes := ga.mach.Lanes()
	batches := (len(iu) + lanes - 1) / lanes
	c.appendEvent("interconnect", 0, "interconnect universe: %d route stuck-ats + %d bridges in %d batches",
		routes, bridges, batches)
	cfg := s.scanConfig(ctx, c, "interconnect")
	scanStart := time.Now()
	results, err := faults.Detect(ga.mach, iu, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Design:       spec.Design,
		FaultModel:   FaultModelInterconnect,
		FaultsTotal:  len(iu),
		FaultBatches: batches,
		RouteFaults:  routes,
		BridgeFaults: bridges,
	}
	unexcited := scanTally(res, results, time.Since(scanStart))
	c.appendEvent("interconnect", batches, "done: %d/%d detected (%.1f%%), %d never excited, mean latency %.1f cycles",
		res.FaultsDetected, len(iu), 100*res.FaultCoverage, unexcited, res.MeanLatencyCycles)
	return res, nil
}

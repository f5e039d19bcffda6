package experiments

// The SEU vulnerability campaign. It runs on the fault-parallel mutant
// engine (internal/faults.Scan): the exhaustive single-fault universe of
// each design — stuck-at-0/1 on every net, every single LUT-bit flip — is
// simulated 64 mutants at a time, one per simulator bit lane, against the
// golden trace. The campaign reports per-design detection coverage and
// latency: how many upsets random functional patterns expose, and how
// fast.

import (
	"fmt"
	"strings"
	"time"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/debug"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/sim"
)

// LatencyBuckets is the number of power-of-two detection-latency
// histogram buckets: bucket k counts faults first detected at a cycle c
// with c+1 in [2^k, 2^(k+1)), and the last bucket absorbs the tail.
const LatencyBuckets = 10

// latencyBucket maps a first-detection cycle to its histogram bucket.
func latencyBucket(firstCycle int) int {
	b := 0
	for v := firstCycle + 1; v > 1 && b < LatencyBuckets-1; v >>= 1 {
		b++
	}
	return b
}

// SEURow summarizes one design's single-event-upset vulnerability under
// random functional patterns: of the exhaustive fault universe, how much
// does plain output comparison against the golden model expose, how
// quickly, and how much of it the fault dictionary could localize without
// probes.
type SEURow struct {
	Design string
	// Faults is the universe size (2 stuck-ats per net + LUT truth-table
	// bits); Batches how many 64-lane groups it took.
	Faults  int
	Batches int
	// Detected / Coverage report overall detection; the per-class splits
	// separate wire upsets from configuration-bit upsets.
	Detected        int
	Coverage        float64
	StuckAtCoverage float64
	LUTFlipCoverage float64
	// MeanLatencyCycles is the mean first-detection cycle (1-based) among
	// detected faults; LatencyHist buckets them by power of two.
	MeanLatencyCycles float64
	LatencyHist       [LatencyBuckets]int
	// Diagnosable is the fraction of detected faults whose PO-mismatch
	// signature class implicates at most debug.DefaultDictMaxSuspects
	// cells — i.e. the fault dictionary localizes them with zero probes.
	Diagnosable float64
	// FaultsPerSec is the fault-parallel engine's measured throughput for
	// this design (whole universe, wall clock).
	FaultsPerSec float64
}

// SEUCampaign fault-simulates the exhaustive universe of every design in
// 64-lane batches under patterns broadcast vectors held cycles clock
// cycles. Designs fan out over the worker pool; per-design results are
// deterministic.
func SEUCampaign(cfg Config, patterns, cycles int) ([]SEURow, error) {
	cfg = cfg.withDefaults()
	scfg := faults.ScanConfig{Patterns: patterns, Cycles: cycles, Seed: cfg.Seed}
	return forEachDesign(cfg, func(d bench.Info) (SEURow, error) {
		golden, err := Mapped(d)
		if err != nil {
			return SEURow{}, err
		}
		prog, err := sim.Compile(golden)
		if err != nil {
			return SEURow{}, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		u := faults.Universe(golden)
		start := time.Now()
		results, err := faults.Scan(prog, u, scfg)
		if err != nil {
			return SEURow{}, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		wall := time.Since(start)
		row := SEURow{Design: d.Name, Faults: len(u), Batches: (len(u) + 63) / 64}
		stuck, stuckDet, flips, flipDet := 0, 0, 0, 0
		latSum := 0
		classes := make(map[uint64]map[string]bool)
		for _, r := range results {
			if r.Fault.Kind == faults.LUTBitFlip {
				flips++
			} else {
				stuck++
			}
			if !r.Detected {
				continue
			}
			row.Detected++
			if r.Fault.Kind == faults.LUTBitFlip {
				flipDet++
			} else {
				stuckDet++
			}
			latSum += r.FirstCycle + 1
			row.LatencyHist[latencyBucket(r.FirstCycle)]++
			cells := classes[r.Signature]
			if cells == nil {
				cells = make(map[string]bool)
				classes[r.Signature] = cells
			}
			if name, ok := r.Fault.SuspectCell(golden); ok {
				cells[name] = true
			}
		}
		if row.Detected > 0 {
			row.Coverage = float64(row.Detected) / float64(len(u))
			row.MeanLatencyCycles = float64(latSum) / float64(row.Detected)
		}
		if stuck > 0 {
			row.StuckAtCoverage = float64(stuckDet) / float64(stuck)
		}
		if flips > 0 {
			row.LUTFlipCoverage = float64(flipDet) / float64(flips)
		}
		diagnosable := 0
		for _, r := range results {
			if !r.Detected {
				continue
			}
			if cells := classes[r.Signature]; len(cells) >= 1 && len(cells) <= debug.DefaultDictMaxSuspects {
				diagnosable++
			}
		}
		if row.Detected > 0 {
			row.Diagnosable = float64(diagnosable) / float64(row.Detected)
		}
		if s := wall.Seconds(); s > 0 {
			row.FaultsPerSec = float64(len(u)) / s
		}
		return row, nil
	})
}

// FormatSEU renders the campaign as a text table.
func FormatSEU(rows []SEURow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "SEU vulnerability campaign (exhaustive fault universe, 64-lane fault-parallel)")
	fmt.Fprintf(&b, "%-11s %8s %8s %8s %9s %9s %9s %8s %12s\n",
		"design", "faults", "detected", "coverage", "stuck-at", "lut-flip", "lat(cyc)", "diag", "faults/sec")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %8d %8d %7.1f%% %8.1f%% %8.1f%% %9.1f %7.1f%% %12.0f\n",
			r.Design, r.Faults, r.Detected, 100*r.Coverage, 100*r.StuckAtCoverage,
			100*r.LUTFlipCoverage, r.MeanLatencyCycles, 100*r.Diagnosable, r.FaultsPerSec)
	}
	return b.String()
}

package experiments

// The multi-fault campaign: one run per design covering the three fault
// models beyond single permanent stuck-ats. Fault pairs ride the lane
// engine one pair per lane and are diagnosed back through the syndrome
// composition dictionary (probe-free when a decoded candidate reproduces
// the exact observed signature in simulation); transient windowed SEUs
// report detection latency from the arming edge and how much the window
// masks; interconnect faults (route stuck-ats + bridges) report coverage.

import (
	"fmt"
	"sort"
	"strings"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/debug"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/sim"
)

// MultiFaultRow is one design's multi-fault campaign outcome.
type MultiFaultRow struct {
	Design string

	// Fault pairs: the sampled suspect-ranked pair universe, how many
	// pairs any output exposed, how many of those the composition
	// dictionary diagnosed as a pair with zero probes (confirmed in
	// simulation by exact signature), and how many collapsed onto a
	// single-fault signature (one fault masking its partner — a sound
	// probe-free verdict naming the dominant fault's equivalence class).
	// PairDiagRate is the probe-free resolution rate:
	// (diagnosed + masked) / detected — the share of detected pairs for
	// which the dictionary returned a simulation-exact verdict without a
	// single probe round.
	Pairs          int
	PairsDetected  int
	PairsDiagnosed int
	PairDiagRate   float64
	PairsMasked    int
	MaskingRate    float64

	// Transient SEUs: a stride sample of the single-fault universe armed
	// only for a short cycle window. Latency percentiles are measured
	// from the arming edge among detected upsets; MaskedFraction is the
	// share of upsets whose permanent arm is detected but whose windowed
	// arm never reaches an output.
	SEUFaults      int
	SEUDetected    int
	SEULatencyP50  float64
	SEULatencyP99  float64
	MaskedFraction float64

	// Interconnect: route stuck-ats on every LUT pin plus sampled
	// bridges, and their combined detection coverage.
	RouteFaults          int
	BridgeFaults         int
	InterconnectCoverage float64
}

// MultiFaultCampaign runs the three-model campaign on every catalog
// design; designs fan out over the worker pool. maxPairs bounds the
// sampled pair universe (0 = 256).
func MultiFaultCampaign(cfg Config, patterns, cycles, maxPairs int) ([]MultiFaultRow, error) {
	cfg = cfg.withDefaults()
	if patterns < 1 {
		patterns = 64
	}
	if cycles < 1 {
		cycles = 2
	}
	scfg := faults.ScanConfig{Patterns: patterns, Cycles: cycles, Seed: cfg.Seed}
	return forEachDesign(cfg, func(d bench.Info) (MultiFaultRow, error) {
		golden, err := Mapped(d)
		if err != nil {
			return MultiFaultRow{}, err
		}
		prog, err := sim.Compile(golden)
		if err != nil {
			return MultiFaultRow{}, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		row := MultiFaultRow{Design: d.Name}
		u := faults.Universe(golden)

		// Fault pairs: dictionary, sampled universe, lane scan, diagnosis.
		dict, err := debug.BuildSyndromeDict(prog, nil, scfg)
		if err != nil {
			return MultiFaultRow{}, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		pu := faults.PairUniverse(golden, u, faults.PairConfig{
			MaxPairs: maxPairs, Seed: cfg.Seed, Singles: dict.Singles(),
		})
		row.Pairs = len(pu)
		prs, err := faults.PairScan(prog, pu, scfg)
		if err != nil {
			return MultiFaultRow{}, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		for _, r := range prs {
			if !r.Detected {
				continue
			}
			row.PairsDetected++
			m, err := dict.Diagnose(prog, r.Syndrome)
			if err != nil {
				return MultiFaultRow{}, fmt.Errorf("experiments: %s: %w", d.Name, err)
			}
			switch {
			case m.Class == debug.ClassPair && m.Confirmed:
				row.PairsDiagnosed++
			case m.Class == debug.ClassSingle && m.MaybeMasked:
				row.PairsMasked++
			}
		}
		if row.PairsDetected > 0 {
			row.PairDiagRate = float64(row.PairsDiagnosed+row.PairsMasked) / float64(row.PairsDetected)
		}
		if row.Pairs > 0 {
			row.MaskingRate = float64(row.PairsMasked) / float64(row.Pairs)
		}

		// Transient SEUs: windowed + permanent arms of a stride sample.
		cyclesTotal := patterns * cycles
		wu := faults.WindowUniverse(u, cyclesTotal, 2*cycles, 512, cfg.Seed)
		perm := make([]faults.Fault, len(wu))
		for i, f := range wu {
			f.From, f.To = 0, 0
			perm[i] = f
		}
		wres, err := faults.Detect(prog, wu, scfg)
		if err != nil {
			return MultiFaultRow{}, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		pres, err := faults.Detect(prog, perm, scfg)
		if err != nil {
			return MultiFaultRow{}, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		row.SEUFaults = len(wu)
		var lat []float64
		masked, permDet := 0, 0
		for i, r := range wres {
			if pres[i].Detected {
				permDet++
				if !r.Detected {
					masked++
				}
			}
			if r.Detected {
				row.SEUDetected++
				lat = append(lat, float64(r.FirstCycle-int(wu[i].From)+1))
			}
		}
		row.SEULatencyP50, row.SEULatencyP99 = latencyPercentiles(lat)
		if permDet > 0 {
			row.MaskedFraction = float64(masked) / float64(permDet)
		}

		// Interconnect faults.
		iu, err := faults.InterconnectUniverse(golden, faults.InterconnectConfig{Seed: cfg.Seed})
		if err != nil {
			return MultiFaultRow{}, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		for _, f := range iu {
			if f.Kind == faults.BridgeAND || f.Kind == faults.BridgeOR {
				row.BridgeFaults++
			} else {
				row.RouteFaults++
			}
		}
		ires, err := faults.Detect(prog, iu, scfg)
		if err != nil {
			return MultiFaultRow{}, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		idet := 0
		for _, r := range ires {
			if r.Detected {
				idet++
			}
		}
		if len(iu) > 0 {
			row.InterconnectCoverage = float64(idet) / float64(len(iu))
		}
		return row, nil
	})
}

// latencyPercentiles returns the p50 and p99 of xs (0, 0 when empty).
func latencyPercentiles(xs []float64) (p50, p99 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	at := func(q float64) float64 { return xs[int(q*float64(len(xs)-1))] }
	return at(0.50), at(0.99)
}

// FormatMultiFault renders the campaign as a text table.
func FormatMultiFault(rows []MultiFaultRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Multi-fault campaign: pairs (lane-packed + syndrome composition), windowed SEUs, interconnect")
	fmt.Fprintf(&b, "%-11s %6s %6s %6s %7s %7s %8s %8s %7s %7s\n",
		"design", "pairs", "det", "diag", "res%", "mask%", "seu-p50", "seu-p99", "seumsk%", "ic-cov%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %6d %6d %6d %6.1f%% %6.1f%% %8.0f %8.0f %6.1f%% %6.1f%%\n",
			r.Design, r.Pairs, r.PairsDetected, r.PairsDiagnosed, 100*r.PairDiagRate,
			100*r.MaskingRate, r.SEULatencyP50, r.SEULatencyP99, 100*r.MaskedFraction,
			100*r.InterconnectCoverage)
	}
	return b.String()
}

package experiments

import (
	"fmt"
	"strings"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/sim"
)

// FaultCampaignRow summarizes random-pattern error-detection coverage for
// one design: of n independently injected design errors, how many does
// plain output comparison against the golden model expose, and how
// quickly.
type FaultCampaignRow struct {
	Design     string
	Injections int
	Detected   int
	// AvgCycles is the mean number of 64-pattern cycles until the first
	// diverging output among detected errors.
	AvgCycles float64
}

// FaultCampaign injects errors (seeds 1..injections) into clones of each
// tech-mapped design and replays words blocks of random stimulus held for
// cycles clock cycles against the golden model — the detection half of
// the paper's loop as a pure-emulation workload. Campaigns are
// independent, so designs fan out over the worker pool; each comparison
// runs through the compiled allocation-free trace path.
func FaultCampaign(cfg Config, injections, words, cycles int) ([]FaultCampaignRow, error) {
	cfg = cfg.withDefaults()
	if injections < 1 {
		injections = 16
	}
	return forEachDesign(cfg, func(d bench.Info) (FaultCampaignRow, error) {
		golden, err := Mapped(d)
		if err != nil {
			return FaultCampaignRow{}, err
		}
		// The golden side never changes: compile it once per design and
		// reuse it across the whole campaign.
		goldenM, err := sim.Compile(golden)
		if err != nil {
			return FaultCampaignRow{}, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		row := FaultCampaignRow{Design: d.Name, Injections: injections}
		totalCycles := 0
		for seed := int64(1); seed <= int64(injections); seed++ {
			mutant := golden.Clone()
			if _, err := faults.InjectRandom(mutant, seed); err != nil {
				return FaultCampaignRow{}, fmt.Errorf("experiments: %s seed %d: %w", d.Name, seed, err)
			}
			mm, err := sim.EquivalentCompiled(goldenM, mutant, words, cycles, cfg.Seed+seed)
			if err != nil {
				return FaultCampaignRow{}, fmt.Errorf("experiments: %s seed %d: %w", d.Name, seed, err)
			}
			if mm != nil {
				row.Detected++
				totalCycles += mm.Cycle + 1
			}
		}
		if row.Detected > 0 {
			row.AvgCycles = float64(totalCycles) / float64(row.Detected)
		}
		return row, nil
	})
}

// FormatFaultCampaign renders campaign coverage as a text table.
func FormatFaultCampaign(rows []FaultCampaignRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fault campaign: random-pattern detection coverage")
	fmt.Fprintf(&b, "%-11s %10s %9s %10s %15s\n", "design", "injected", "detected", "coverage", "avg cyc@detect")
	for _, r := range rows {
		cov := 0.0
		if r.Injections > 0 {
			cov = 100 * float64(r.Detected) / float64(r.Injections)
		}
		fmt.Fprintf(&b, "%-11s %10d %9d %9.1f%% %15.1f\n", r.Design, r.Injections, r.Detected, cov, r.AvgCycles)
	}
	return b.String()
}

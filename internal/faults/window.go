package faults

// The transient/intermittent SEU model: a fault armed only for a cycle
// window [From, To). The lane engine needs nothing new — Fault.Lane
// carries the window and the execution core gates every lane mutation on
// its per-cycle counter — so Scan handles windowed faults natively, at
// unchanged batch cost. What this file adds is the windowed universe
// sampler and the serial differential oracle: a two-machine lockstep
// that runs the golden program outside the window and the recompiled
// permanent mutant inside it, handing the flip-flop state across each
// boundary, so corrupted state captured during the window propagates
// exactly as the lane engine's gated perturbation does.

import (
	"fmt"
	"math/rand"

	"fpgadbg/internal/sim"
)

// WindowUniverse derives a windowed-SEU fault list: maxFaults sites
// drawn deterministically from u (stride-sampled, preserving kind mix),
// each armed for a winLen-cycle window at a seeded random offset within
// a cycles-long stimulus. winLen is clamped to [1, cycles]; windows
// always fit within [0, cycles). Offsets of 0 are legal (To > 0 marks
// the fault windowed even when From == 0).
func WindowUniverse(u []Fault, cycles, winLen, maxFaults int, seed int64) []Fault {
	if len(u) == 0 || cycles < 1 || maxFaults < 1 {
		return nil
	}
	if winLen < 1 {
		winLen = 1
	}
	if winLen > cycles {
		winLen = cycles
	}
	if maxFaults > len(u) {
		maxFaults = len(u)
	}
	r := rand.New(rand.NewSource(seed))
	stride := len(u) / maxFaults
	if stride < 1 {
		stride = 1
	}
	out := make([]Fault, 0, maxFaults)
	for i := 0; i < len(u) && len(out) < maxFaults; i += stride {
		f := u[i]
		f.From = int32(r.Intn(cycles - winLen + 1))
		f.To = f.From + int32(winLen)
		out = append(out, f)
	}
	return out
}

// SerialWindowScan computes windowed-fault outcomes one mutant at a
// time — the differential oracle for Scan over windowed faults. Per
// fault it compiles the permanent mutant (clone+Apply+recompile; source
// stuck-ats run as overrides on a golden fork) and splices it into the
// golden stream: golden machine for cycles [0, From), mutant for
// [From, To), golden again for [To, end), with the flip-flop state
// handed across each boundary via StateWords/SetStateWords. Fault.Apply
// preserves the DFF population and order (no mutation adds or removes a
// flip-flop), so state snapshots transfer between the two compiles
// verbatim. Outcomes must be bit-identical to the lane engine's
// (TestWindowedScanMatchesSerialAcrossCatalog).
func SerialWindowScan(prog *sim.Machine, fs []Fault, cfg ScanConfig) ([]ScanResult, error) {
	cfg = cfg.withDefaults()
	stim := cfg.Stimulus(len(prog.PIOrder()))
	golden := prog.Netlist()
	gt := prog.Fork().RunTrace(stim)
	// The lockstep runs at width 1 on both sides: recompiled mutants are
	// width-1 machines, and state snapshots only transfer between
	// machines of equal width. The broadcast stimulus makes word-0
	// comparison against the wide golden trace exact.
	gm, err := sim.Compile(golden)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	out := make([]ScanResult, 0, len(fs))
	var s Signer
	var seg sim.Trace
	for fi, f := range fs {
		from, to := int(f.From), int(f.To)
		if !f.Windowed() {
			from, to = 0, len(stim)
		}
		if to > len(stim) {
			to = len(stim)
		}
		if from > to {
			from = to
		}

		// The permanent mutant machine.
		var mm *sim.Machine
		mutant := golden.Clone()
		applied, err := f.Apply(mutant)
		if err != nil {
			return nil, err
		}
		if applied {
			mm, err = sim.Compile(mutant)
			if err != nil {
				return nil, fmt.Errorf("faults: %s: %w", f.Describe(golden), err)
			}
		} else {
			mm = gm.Fork()
			w := uint64(0)
			if f.Kind == StuckAt1 {
				w = ^uint64(0)
			}
			if err := mm.SetOverride(f.Net, w); err != nil {
				return nil, fmt.Errorf("faults: %s: %w", f.Describe(golden), err)
			}
		}

		gm.Reset()
		s.Reset()
		note := func(tr *sim.Trace, base int) {
			for c := 0; c < tr.Cycles; c++ {
				for po := 0; po < tr.NumPOs; po++ {
					if tr.Out(c, po) != gt.Out(base+c, po) {
						s.Note(base+c, po)
					}
				}
			}
		}
		// Healthy prefix: [0, from) on the golden machine.
		if from > 0 {
			note(gm.ResumeTraceInto(&seg, stim[:from]), 0)
		}
		// Faulty window: [from, to) on the mutant, seeded with the
		// golden state at the window's opening edge.
		if to > from {
			mm.Reset()
			if err := mm.SetStateWords(gm.StateWords()); err != nil {
				return nil, fmt.Errorf("faults: %s: %w", f.Describe(golden), err)
			}
			note(mm.ResumeTraceInto(&seg, stim[from:to]), from)
		}
		// Healthy suffix: [to, end) on the golden machine, carrying
		// whatever corrupted state the window captured.
		if to < len(stim) {
			if err := gm.SetStateWords(mm.StateWords()); err != nil {
				return nil, fmt.Errorf("faults: %s: %w", f.Describe(golden), err)
			}
			note(gm.ResumeTraceInto(&seg, stim[to:]), to)
		}
		out = append(out, s.Result(f))
		if cfg.OnBatch != nil && ((fi+1)%64 == 0 || fi+1 == len(fs)) {
			if err := cfg.OnBatch((fi+1+63)/64, (len(fs)+63)/64); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

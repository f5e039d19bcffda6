package sim

import (
	"fmt"

	"fpgadbg/internal/netlist"
	"fpgadbg/internal/testgen"
)

// Mismatch describes the first detected difference between two designs.
type Mismatch struct {
	Cycle   int
	Output  string
	Pattern int // which of the 64 parallel patterns diverged
	WantBit bool
	GotBit  bool
	Inputs  map[string]uint64 // the input words applied that cycle
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("cycle %d output %q pattern %d: want %v got %v",
		m.Cycle, m.Output, m.Pattern, m.WantBit, m.GotBit)
}

// Equivalent runs both designs on the same random stimulus and compares
// primary outputs. Designs are matched by PI/PO names, which must be
// identical sets. words blocks of 64 random patterns are applied; for
// sequential designs each block is held for cycles clock cycles. It returns
// nil when no difference was observed, or a Mismatch describing the first
// divergence.
//
// Both designs are replayed through the compiled trace API: names are
// bound to slots once and the whole sequence runs allocation-free.
func Equivalent(a, b *netlist.Netlist, words, cycles int, seed int64) (*Mismatch, error) {
	ma, err := Compile(a)
	if err != nil {
		return nil, err
	}
	return EquivalentCompiled(ma, b, words, cycles, seed)
}

// EquivalentCompiled is Equivalent with the first design precompiled —
// for fault campaigns comparing one golden machine against many mutants
// without recompiling the golden side per comparison.
func EquivalentCompiled(ma *Machine, b *netlist.Netlist, words, cycles int, seed int64) (*Mismatch, error) {
	mb, err := Compile(b)
	if err != nil {
		return nil, err
	}
	return EquivalentMachines(ma, mb, words, cycles, seed)
}

// EquivalentMachines is Equivalent with both designs precompiled — for
// a caller that already holds a program of the second design too. Both
// machines are rebound and reset.
func EquivalentMachines(ma, mb *Machine, words, cycles int, seed int64) (*Mismatch, error) {
	a, b := ma.Netlist(), mb.Netlist()
	pis := a.SortedPINames()
	pos := a.SortedPONames()
	if err := sameNames(pis, b.SortedPINames()); err != nil {
		return nil, fmt.Errorf("sim: PI mismatch: %w", err)
	}
	if err := sameNames(pos, b.SortedPONames()); err != nil {
		return nil, fmt.Errorf("sim: PO mismatch: %w", err)
	}
	if cycles < 1 {
		cycles = 1
	}
	blocks := testgen.RandomBlocks(len(pis), words, seed)
	stim := testgen.Repeat(blocks, cycles)
	return compareTraces(ma, mb, pis, pos, stim, false)
}

// ExhaustiveEquivalent compares two purely combinational designs on every
// input assignment; the common PI count must be at most 20.
// It is the differential oracle for technology mapping and fault injection
// (synth TestTechMapEquivalenceCombinational, faults
// TestEachKindChangesBehaviour).
func ExhaustiveEquivalent(a, b *netlist.Netlist) (*Mismatch, error) {
	pis := a.SortedPINames()
	pos := a.SortedPONames()
	if err := sameNames(pis, b.SortedPINames()); err != nil {
		return nil, fmt.Errorf("sim: PI mismatch: %w", err)
	}
	if err := sameNames(pos, b.SortedPONames()); err != nil {
		return nil, fmt.Errorf("sim: PO mismatch: %w", err)
	}
	if len(pis) > 20 {
		return nil, fmt.Errorf("sim: %d PIs too many for exhaustive comparison", len(pis))
	}
	stim, err := testgen.ExhaustiveBlocks(len(pis))
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	ma, err := Compile(a)
	if err != nil {
		return nil, err
	}
	mb, err := Compile(b)
	if err != nil {
		return nil, err
	}
	return compareTraces(ma, mb, pis, pos, stim, true)
}

// compareWindow bounds how many cycles compareTraces replays before
// scanning for a divergence, so a mismatch on an early cycle does not pay
// for the whole sequence.
const compareWindow = 64

// compareTraces replays stim on both designs in windows and reports the
// first differing PO bit. When maskTail is set, invalid pattern bits of a
// final partial exhaustive word are ignored.
func compareTraces(ma, mb *Machine, pis, pos []string, stim [][]uint64, maskTail bool) (*Mismatch, error) {
	if err := ma.BindNames(pis); err != nil {
		return nil, err
	}
	if err := mb.BindNames(pis); err != nil {
		return nil, err
	}
	aCols, err := ma.POCols(pos)
	if err != nil {
		return nil, err
	}
	bCols, err := mb.POCols(pos)
	if err != nil {
		return nil, err
	}
	ma.Reset()
	mb.Reset()
	var ta, tb Trace
	for base := 0; base < len(stim); base += compareWindow {
		end := base + compareWindow
		if end > len(stim) {
			end = len(stim)
		}
		window := stim[base:end]
		ma.ResumeTraceInto(&ta, window)
		mb.ResumeTraceInto(&tb, window)
		for c := 0; c < len(window); c++ {
			mask := ^uint64(0)
			if maskTail {
				total := uint64(1) << len(pis)
				off := uint64(base+c) * 64
				if total-off < 64 {
					mask = uint64(1)<<(total-off) - 1
				}
			}
			for i, name := range pos {
				av := ta.Out(c, aCols[i])
				bv := tb.Out(c, bCols[i])
				if d := (av ^ bv) & mask; d != 0 {
					p := firstBit(d)
					mm := &Mismatch{
						Cycle:   base + c,
						Output:  name,
						Pattern: p,
						WantBit: av&(1<<p) != 0,
						GotBit:  bv&(1<<p) != 0,
						Inputs:  make(map[string]uint64, len(pis)),
					}
					for j, pi := range pis {
						if j < len(stim[base+c]) {
							mm.Inputs[pi] = stim[base+c][j]
						}
					}
					return mm, nil
				}
			}
		}
	}
	return nil, nil
}

func firstBit(w uint64) int {
	for i := 0; i < 64; i++ {
		if w&(1<<i) != 0 {
			return i
		}
	}
	return 0
}

func sameNames(a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%q vs %q", a[i], b[i])
		}
	}
	return nil
}

package testgen

import (
	"fmt"
	"math/rand"
)

// RandomBlocks returns nWords stimulus rows of uniformly random
// 64-pattern words over cols input columns.
func RandomBlocks(cols, nWords int, seed int64) [][]uint64 {
	r := rand.New(rand.NewSource(seed))
	out := make([][]uint64, nWords)
	for w := range out {
		row := make([]uint64, cols)
		for j := range row {
			row[j] = r.Uint64()
		}
		out[w] = row
	}
	return out
}

// ScalarBlocks returns nPatterns broadcast stimulus rows over cols input
// columns: every word is 0 or all-ones, so all 64 simulator lanes see the
// same scalar test vector. This is the stimulus shape of fault-parallel
// simulation (one mutant per lane, see sim.SetLaneFault), where the lanes
// carry mutants instead of patterns and therefore must share the input.
func ScalarBlocks(cols, nPatterns int, seed int64) [][]uint64 {
	r := rand.New(rand.NewSource(seed))
	out := make([][]uint64, nPatterns)
	for p := range out {
		row := make([]uint64, cols)
		for j := range row {
			if r.Int63()&1 != 0 {
				row[j] = ^uint64(0)
			}
		}
		out[p] = row
	}
	return out
}

// TransposeToScalar expands packed 64-pattern stimulus rows into their
// individual scalar patterns as broadcast rows: pattern p of packed row w
// becomes one row whose words are 0 or all-ones. The result drives the
// fault-parallel scanner with exactly the pattern set of a pattern-
// parallel replay, so (for combinational logic) whatever the packed
// stimulus excites, the scalar replay excites too.
func TransposeToScalar(blocks [][]uint64) [][]uint64 {
	out := make([][]uint64, 0, len(blocks)*64)
	for _, packed := range blocks {
		for p := 0; p < 64; p++ {
			row := make([]uint64, len(packed))
			for j, w := range packed {
				row[j] = -(w >> uint(p) & 1)
			}
			out = append(out, row)
		}
	}
	return out
}

// WeightedBlocks returns random stimulus rows with each input bit biased
// to 1 with probability p1 — useful for exciting control-dominated logic.
func WeightedBlocks(cols, nWords int, p1 float64, seed int64) [][]uint64 {
	r := rand.New(rand.NewSource(seed))
	out := make([][]uint64, nWords)
	for w := range out {
		row := make([]uint64, cols)
		for j := range row {
			var word uint64
			for b := 0; b < 64; b++ {
				if r.Float64() < p1 {
					word |= 1 << b
				}
			}
			row[j] = word
		}
		out[w] = row
	}
	return out
}

// ExhaustiveBlocks returns every assignment over cols inputs, packed 64
// patterns per row. It refuses more than 20 inputs (2^20 patterns).
func ExhaustiveBlocks(cols int) ([][]uint64, error) {
	if cols > 20 {
		return nil, fmt.Errorf("testgen: %d inputs is too many for exhaustive patterns", cols)
	}
	total := uint64(1) << cols
	words := int((total + 63) / 64)
	out := make([][]uint64, words)
	for w := 0; w < words; w++ {
		row := make([]uint64, cols)
		base := uint64(w) * 64
		for j := range row {
			var word uint64
			for p := uint64(0); p < 64 && base+p < total; p++ {
				if (base+p)&(1<<j) != 0 {
					word |= 1 << p
				}
			}
			row[j] = word
		}
		out[w] = row
	}
	return out, nil
}

// SequenceBlocks returns a clocked stimulus of length rows over cols
// inputs from an LFSR stream.
func SequenceBlocks(cols, length int, seed uint64) [][]uint64 {
	l := NewLFSR(seed)
	out := make([][]uint64, length)
	for c := range out {
		row := make([]uint64, cols)
		for j := range row {
			row[j] = l.Next()
		}
		out[c] = row
	}
	return out
}

// Repeat expands a block sequence into a clocked one: each row is held
// for cycles consecutive clock cycles (rows are shared, not copied).
func Repeat(blocks [][]uint64, cycles int) [][]uint64 {
	if cycles < 1 {
		cycles = 1
	}
	out := make([][]uint64, 0, len(blocks)*cycles)
	for _, row := range blocks {
		for c := 0; c < cycles; c++ {
			out = append(out, row)
		}
	}
	return out
}

// toMaps keys block columns by the given input names.
func toMaps(pis []string, blocks [][]uint64) []map[string]uint64 {
	out := make([]map[string]uint64, len(blocks))
	for i, row := range blocks {
		m := make(map[string]uint64, len(pis))
		for j, name := range pis {
			m[name] = row[j]
		}
		out[i] = m
	}
	return out
}

// Random returns nWords blocks of 64 uniformly random patterns over the
// named inputs. Compatibility wrapper over RandomBlocks.
func Random(pis []string, nWords int, seed int64) []map[string]uint64 {
	return toMaps(pis, RandomBlocks(len(pis), nWords, seed))
}

// Weighted returns random patterns with each input biased to 1 with the
// given probability. Compatibility wrapper over WeightedBlocks.
func Weighted(pis []string, nWords int, p1 float64, seed int64) []map[string]uint64 {
	return toMaps(pis, WeightedBlocks(len(pis), nWords, p1, seed))
}

// Exhaustive returns every assignment over the inputs, packed 64 per
// word. Compatibility wrapper over ExhaustiveBlocks.
func Exhaustive(pis []string) ([]map[string]uint64, error) {
	blocks, err := ExhaustiveBlocks(len(pis))
	if err != nil {
		return nil, err
	}
	return toMaps(pis, blocks), nil
}

// LFSR produces a maximal-ish pseudo-random bit sequence from a 64-bit
// Fibonacci LFSR; used to build long sequential stimulus cheaply and
// reproducibly (hardware pattern generators are LFSRs too).
type LFSR struct {
	state uint64
}

// NewLFSR seeds the generator; a zero seed is replaced to avoid lock-up.
func NewLFSR(seed uint64) *LFSR {
	if seed == 0 {
		seed = 0x1d872b41c3f0aa5
	}
	return &LFSR{state: seed}
}

// Next returns the next 64-bit word of the sequence.
func (l *LFSR) Next() uint64 {
	// Taps 64,63,61,60 (primitive over GF(2)).
	s := l.state
	for i := 0; i < 64; i++ {
		bit := ((s >> 63) ^ (s >> 62) ^ (s >> 60) ^ (s >> 59)) & 1
		s = s<<1 | bit
	}
	l.state = s
	return s
}

// Sequence returns a clocked stimulus: length cycles of patterns for the
// named inputs, from an LFSR stream. Compatibility wrapper over
// SequenceBlocks.
func Sequence(pis []string, length int, seed uint64) []map[string]uint64 {
	return toMaps(pis, SequenceBlocks(len(pis), length, seed))
}

// Holding returns stimulus where selected inputs are held at fixed values
// while the rest are random; held names outside pis are added to the
// maps. Compatibility wrapper over RandomBlocks.
func Holding(pis []string, hold map[string]uint64, nWords int, seed int64) []map[string]uint64 {
	pats := toMaps(pis, RandomBlocks(len(pis), nWords, seed))
	for _, m := range pats {
		for k, v := range hold {
			m[k] = v
		}
	}
	return pats
}

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

// ExhaustiveBlocks returns every assignment over cols inputs, packed 64
// patterns per row. It refuses more than 20 inputs (2^20 patterns). It is
// the input of the differential oracle sim.ExhaustiveEquivalent.
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
// named inputs, column for column the words of RandomBlocks. It is a test
// fixture: the name-keyed stimulus of BenchmarkSimStep and the testgen
// tests.
func Random(pis []string, nWords int, seed int64) []map[string]uint64 {
	return toMaps(pis, RandomBlocks(len(pis), nWords, seed))
}

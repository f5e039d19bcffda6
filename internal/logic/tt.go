package logic

import (
	"fmt"
	"strings"
)

// TTMaxVars bounds truth-table width; 2^16 bits = 8 KiB per table.
const TTMaxVars = 16

// TT is a truth table over N variables stored as a bit vector: bit m of the
// table (word m/64, bit m%64) is the function value on assignment m, where
// bit i of m is the value of variable i. Unused bits in the last word are
// kept zero so tables compare with ==-style word equality.
type TT struct {
	N int
	W []uint64
}

// NewTT returns the constant-false table over n variables.
func NewTT(n int) TT {
	if n < 0 || n > TTMaxVars {
		panic(fmt.Sprintf("logic: NewTT(%d) out of range [0,%d]", n, TTMaxVars))
	}
	return TT{N: n, W: make([]uint64, ttWords(n))}
}

func ttWords(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// size returns the number of assignments, 2^N.
func (t TT) size() uint64 { return uint64(1) << t.N }

// tailMask returns the mask of valid bits in the final word.
func (t TT) tailMask() uint64 {
	if t.N >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << t.size()) - 1
}

// TTFromFunc builds a table by evaluating f on every assignment.
func TTFromFunc(n int, f func(assign uint64) bool) TT {
	t := NewTT(n)
	for m := uint64(0); m < t.size(); m++ {
		if f(m) {
			t.W[m>>6] |= 1 << (m & 63)
		}
	}
	return t
}

// Bit returns the function value on assignment m.
func (t TT) Bit(m uint64) bool { return t.W[m>>6]&(1<<(m&63)) != 0 }

// SetBit sets the function value on assignment m.
func (t *TT) SetBit(m uint64, v bool) {
	if v {
		t.W[m>>6] |= 1 << (m & 63)
	} else {
		t.W[m>>6] &^= 1 << (m & 63)
	}
}

// orCube sets every minterm covered by the cube.
func (t *TT) orCube(c Cube) {
	// Fast path: full tables for narrow cubes would be slow minterm by
	// minterm only for very wide tables; enumeration over free variables is
	// bounded by table size anyway.
	for m := uint64(0); m < t.size(); m++ {
		if c.Eval(m) {
			t.W[m>>6] |= 1 << (m & 63)
		}
	}
}

// Not returns the complement.
func (t TT) Not() TT {
	out := NewTT(t.N)
	for i := range t.W {
		out.W[i] = ^t.W[i]
	}
	out.W[len(out.W)-1] &= out.tailMask()
	return out
}

// Equal reports semantic equality of two tables of the same width.
func (t TT) Equal(u TT) bool {
	if t.N != u.N {
		return false
	}
	for i := range t.W {
		if t.W[i] != u.W[i] {
			return false
		}
	}
	return true
}

// ToCover converts the table to a cover (minterm expansion followed by
// simplification).
func (t TT) ToCover() Cover {
	c := Cover{N: t.N}
	for m := uint64(0); m < t.size(); m++ {
		if t.Bit(m) {
			c.Cubes = append(c.Cubes, CubeOfMinterm(t.N, m))
		}
	}
	return c.Simplify()
}

// Word4 returns the 16-bit truth table of a function over at most 4
// variables, the configuration word of one XC4000-style LUT.
func (t TT) Word4() (uint16, error) {
	if t.N > 4 {
		return 0, fmt.Errorf("logic: Word4 on %d-variable table", t.N)
	}
	// Replicate across the unused high variables so that the word is well
	// defined regardless of their values.
	var w uint64
	for m := uint64(0); m < 16; m++ {
		if t.Bit(m & (t.size() - 1)) {
			w |= 1 << m
		}
	}
	return uint16(w), nil
}

// String renders the table as a hex string, most significant assignment
// first.
func (t TT) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tt%d:", t.N)
	for i := len(t.W) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%016x", t.W[i])
	}
	return b.String()
}

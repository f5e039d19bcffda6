package logic

import (
	"fmt"
	"math/bits"
)

// AndN returns the n-input AND as a cover (a single cube of positive
// literals).
func AndN(n int) Cover {
	return Cover{N: n, Cubes: []Cube{{Mask: maskN(n), Val: maskN(n)}}}
}

// NorN returns the n-input NOR (a single cube of negative literals, by De
// Morgan).
func NorN(n int) Cover {
	return Cover{N: n, Cubes: []Cube{{Mask: maskN(n)}}}
}

// OrN returns the n-input OR (one positive literal per cube).
func OrN(n int) Cover {
	c := Cover{N: n, Cubes: make([]Cube, n)}
	for i := 0; i < n; i++ {
		c.Cubes[i] = Cube{Mask: 1 << i, Val: 1 << i}
	}
	return c
}

// NandN returns the n-input NAND (one negative literal per cube).
func NandN(n int) Cover {
	c := Cover{N: n, Cubes: make([]Cube, n)}
	for i := 0; i < n; i++ {
		c.Cubes[i] = Cube{Mask: 1 << i}
	}
	return c
}

// XorN returns n-input parity. The SOP has 2^(n-1) cubes, so n is limited
// to TTMaxVars; wide parities should be built as XOR trees instead (package
// synth does this automatically).
func XorN(n int) Cover {
	if n > TTMaxVars {
		panic(fmt.Sprintf("logic: XorN(%d) exceeds %d; build a tree instead", n, TTMaxVars))
	}
	c := Cover{N: n}
	for m := uint64(0); m < uint64(1)<<n; m++ {
		if bits.OnesCount64(m)%2 == 1 {
			c.Cubes = append(c.Cubes, CubeOfMinterm(n, m))
		}
	}
	return c
}

// XnorN returns n-input even parity, with the same width limit as XorN.
func XnorN(n int) Cover {
	if n > TTMaxVars {
		panic(fmt.Sprintf("logic: XnorN(%d) exceeds %d; build a tree instead", n, TTMaxVars))
	}
	c := Cover{N: n}
	for m := uint64(0); m < uint64(1)<<n; m++ {
		if bits.OnesCount64(m)%2 == 0 {
			c.Cubes = append(c.Cubes, CubeOfMinterm(n, m))
		}
	}
	return c
}

// NotN returns the inverter over one variable.
func NotN() Cover { return NotVarC(1, 0) }

// BufN returns the identity over one variable.
func BufN() Cover { return Var(1, 0) }

// Mux2 returns the 2:1 multiplexer over (sel, a, b) = variables (0, 1, 2):
// out = sel ? b : a.
func Mux2() Cover {
	return Cover{N: 3, Cubes: []Cube{
		{Mask: 0b011, Val: 0b010}, // ¬sel · a
		{Mask: 0b101, Val: 0b101}, // sel · b
	}}
}

// Maj3 returns the 3-input majority function (the carry of a full adder).
func Maj3() Cover {
	return Cover{N: 3, Cubes: []Cube{
		{Mask: 0b011, Val: 0b011},
		{Mask: 0b101, Val: 0b101},
		{Mask: 0b110, Val: 0b110},
	}}
}

// Symmetric returns the n-input symmetric function that is true exactly
// when the number of true inputs k satisfies want(k). This is how the
// MCNC benchmark 9sym is generated (want(k) for k in 3..6). n is limited to
// TTMaxVars.
func Symmetric(n int, want func(onesCount int) bool) Cover {
	if n > TTMaxVars {
		panic(fmt.Sprintf("logic: Symmetric(%d) exceeds %d", n, TTMaxVars))
	}
	c := Cover{N: n}
	for m := uint64(0); m < uint64(1)<<n; m++ {
		if want(bits.OnesCount64(m)) {
			c.Cubes = append(c.Cubes, CubeOfMinterm(n, m))
		}
	}
	return c.Simplify()
}

// EqConst returns the n-input function true exactly on assignment k.
func EqConst(n int, k uint64) Cover {
	return Cover{N: n, Cubes: []Cube{CubeOfMinterm(n, k)}}
}

// TTFromWord4 builds a 4-variable truth table from its 16-bit configuration
// word, the inverse of TT.Word4.
func TTFromWord4(w uint16) TT {
	t := NewTT(4)
	t.W[0] = uint64(w)
	return t
}

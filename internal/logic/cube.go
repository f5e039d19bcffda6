package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxVars is the largest number of variables a Cube or Cover may range over.
const MaxVars = 64

// Cube is a product term (a conjunction of literals) over up to MaxVars
// Boolean variables. Bit i of Mask is set when variable i appears in the
// term; the corresponding bit of Val gives the required value. Bits of Val
// outside Mask must be zero. The empty cube (Mask == 0) is the constant
// true.
type Cube struct {
	Mask uint64
	Val  uint64
}

// CubeFromString parses PLA input-plane notation: one character per
// variable, '1' for a positive literal, '0' for a negative literal and '-'
// for an absent variable. Variable 0 is the leftmost character.
func CubeFromString(s string) (Cube, error) {
	if len(s) > MaxVars {
		return Cube{}, fmt.Errorf("logic: cube %q exceeds %d variables", s, MaxVars)
	}
	var c Cube
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			c.Mask |= 1 << i
		case '1':
			c.Mask |= 1 << i
			c.Val |= 1 << i
		case '-':
			// absent
		default:
			return Cube{}, fmt.Errorf("logic: cube %q has invalid character %q", s, s[i])
		}
	}
	return c, nil
}

// CubeOfMinterm returns the cube selecting exactly the assignment m over n
// variables.
func CubeOfMinterm(n int, m uint64) Cube {
	mask := maskN(n)
	return Cube{Mask: mask, Val: m & mask}
}

func maskN(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// Eval reports whether the cube covers the assignment. Bit i of assign is
// the value of variable i.
func (c Cube) Eval(assign uint64) bool { return assign&c.Mask == c.Val }

// Contains reports whether every minterm of d is also a minterm of c, i.e.
// whether every literal of c appears in d with the same polarity.
func (c Cube) Contains(d Cube) bool {
	return c.Mask&^d.Mask == 0 && d.Val&c.Mask == c.Val
}

// TestsVar reports whether variable v appears as a literal.
func (c Cube) TestsVar(v int) bool { return c.Mask&(1<<v) != 0 }

// LitVal returns the polarity of variable v's literal. It must only be
// called when TestsVar(v) is true.
func (c Cube) LitVal(v int) bool { return c.Val&(1<<v) != 0 }

// WithLit returns the cube with variable v constrained to val.
func (c Cube) WithLit(v int, val bool) Cube {
	c.Mask |= 1 << v
	if val {
		c.Val |= 1 << v
	} else {
		c.Val &^= 1 << v
	}
	return c
}

// DropVar returns the cube with any literal on variable v removed.
func (c Cube) DropVar(v int) Cube {
	c.Mask &^= 1 << v
	c.Val &^= 1 << v
	return c
}

// MergeDistance1 merges two cubes that differ only in the polarity of a
// single shared literal (the classic a·x + a·x' = a identity). ok is false
// when the cubes are not mergeable this way.
func (c Cube) MergeDistance1(d Cube) (merged Cube, ok bool) {
	if c.Mask != d.Mask {
		return Cube{}, false
	}
	diff := c.Val ^ d.Val
	if bits.OnesCount64(diff) != 1 {
		return Cube{}, false
	}
	return Cube{Mask: c.Mask &^ diff, Val: c.Val &^ diff}, true
}

// String renders the cube in PLA notation over n variables.
func (c Cube) String(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch {
		case !c.TestsVar(i):
			b.WriteByte('-')
		case c.LitVal(i):
			b.WriteByte('1')
		default:
			b.WriteByte('0')
		}
	}
	return b.String()
}

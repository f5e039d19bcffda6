package logic

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Cover is a sum-of-products representation of a Boolean function over N
// variables: the disjunction of its Cubes. An empty cube list is the
// constant false; a cover containing the empty cube is the constant true.
// Because any cube covers at least one minterm, a cover is the constant
// false if and only if its cube list is empty.
type Cover struct {
	N     int
	Cubes []Cube
}

// Const returns the constant-v function over n variables.
func Const(n int, v bool) Cover {
	if v {
		return Cover{N: n, Cubes: []Cube{{}}}
	}
	return Cover{N: n}
}

// Var returns the single-literal function x_i over n variables.
func Var(n, i int) Cover {
	return Cover{N: n, Cubes: []Cube{{Mask: 1 << i, Val: 1 << i}}}
}

// NotVarC returns the single-literal function ¬x_i over n variables.
func NotVarC(n, i int) Cover {
	return Cover{N: n, Cubes: []Cube{{Mask: 1 << i}}}
}

// FromCubes assembles a cover over n variables from explicit cubes.
func FromCubes(n int, cubes ...Cube) Cover {
	return Cover{N: n, Cubes: append([]Cube(nil), cubes...)}
}

// FromStrings parses one PLA input-plane row per string; all rows must have
// equal width, which becomes N.
func FromStrings(rows ...string) (Cover, error) {
	if len(rows) == 0 {
		return Cover{}, fmt.Errorf("logic: FromStrings needs at least one row")
	}
	n := len(rows[0])
	c := Cover{N: n, Cubes: make([]Cube, 0, len(rows))}
	for _, r := range rows {
		if len(r) != n {
			return Cover{}, fmt.Errorf("logic: row %q width %d != %d", r, len(r), n)
		}
		cube, err := CubeFromString(r)
		if err != nil {
			return Cover{}, err
		}
		c.Cubes = append(c.Cubes, cube)
	}
	return c, nil
}

// MustFromStrings is FromStrings that panics on malformed input; intended
// for statically known tables such as the DES S-boxes.
func MustFromStrings(rows ...string) Cover {
	c, err := FromStrings(rows...)
	if err != nil {
		panic(err)
	}
	return c
}

// Eval evaluates the cover on a single assignment (bit i of assign is
// variable i).
func (c Cover) Eval(assign uint64) bool {
	for _, cu := range c.Cubes {
		if cu.Eval(assign) {
			return true
		}
	}
	return false
}

// EvalWords evaluates 64 assignments at once. in[i] carries the values of
// variable i across the 64 patterns; bit p of the result is the function
// value on pattern p. len(in) must be at least N.
func (c Cover) EvalWords(in []uint64) uint64 {
	var out uint64
	for _, cu := range c.Cubes {
		acc := ^uint64(0)
		m := cu.Mask
		for m != 0 {
			v := bits.TrailingZeros64(m)
			m &= m - 1
			if cu.Val&(1<<v) != 0 {
				acc &= in[v]
			} else {
				acc &= ^in[v]
			}
			if acc == 0 {
				break
			}
		}
		out |= acc
		if out == ^uint64(0) {
			break
		}
	}
	return out
}

// Or returns the disjunction of two covers over the same variable count.
func (c Cover) Or(d Cover) Cover {
	if c.N != d.N {
		panic(fmt.Sprintf("logic: Or on mismatched widths %d and %d", c.N, d.N))
	}
	out := Cover{N: c.N, Cubes: make([]Cube, 0, len(c.Cubes)+len(d.Cubes))}
	out.Cubes = append(out.Cubes, c.Cubes...)
	out.Cubes = append(out.Cubes, d.Cubes...)
	return out
}

// And returns the product of two covers (cross product of cube lists with
// single-cube containment cleanup). The result can be quadratically larger
// than the inputs; callers working with wide covers should prefer
// decomposition in package synth.
func (c Cover) And(d Cover) Cover {
	if c.N != d.N {
		panic(fmt.Sprintf("logic: And on mismatched widths %d and %d", c.N, d.N))
	}
	out := Cover{N: c.N}
	for _, cu := range c.Cubes {
		for _, du := range d.Cubes {
			if p, ok := cu.And(du); ok {
				out.Cubes = append(out.Cubes, p)
			}
		}
	}
	return out.Irredundant()
}

// Cofactor returns the Shannon cofactor of the cover with variable v fixed
// to val. The variable count is unchanged; the result no longer depends on
// v.
func (c Cover) Cofactor(v int, val bool) Cover {
	out := Cover{N: c.N, Cubes: make([]Cube, 0, len(c.Cubes))}
	for _, cu := range c.Cubes {
		if !cu.TestsVar(v) {
			out.Cubes = append(out.Cubes, cu)
			continue
		}
		if cu.LitVal(v) == val {
			out.Cubes = append(out.Cubes, cu.DropVar(v))
		}
	}
	return out
}

// SupportMask returns a bit mask of the variables appearing in some cube.
func (c Cover) SupportMask() uint64 {
	var m uint64
	for _, cu := range c.Cubes {
		m |= cu.Mask
	}
	return m
}

// Support returns the sorted list of variables the cover syntactically
// depends on.
func (c Cover) Support() []int {
	m := c.SupportMask()
	var vars []int
	for m != 0 {
		v := bits.TrailingZeros64(m)
		m &= m - 1
		vars = append(vars, v)
	}
	return vars
}

// Compact renumbers the cover onto its support. It returns the compacted
// cover (whose N is the support size) and the original indices of its
// variables: new variable j corresponds to old variable vars[j].
func (c Cover) Compact() (Cover, []int) {
	vars := c.Support()
	pos := make(map[int]int, len(vars))
	for j, v := range vars {
		pos[v] = j
	}
	out := Cover{N: len(vars), Cubes: make([]Cube, 0, len(c.Cubes))}
	for _, cu := range c.Cubes {
		var nc Cube
		m := cu.Mask
		for m != 0 {
			v := bits.TrailingZeros64(m)
			m &= m - 1
			nc = nc.WithLit(pos[v], cu.LitVal(v))
		}
		out.Cubes = append(out.Cubes, nc)
	}
	return out, vars
}

// Permute remaps variables: old variable i becomes new variable perm[i] in
// a cover over newN variables. len(perm) must be at least the largest
// support variable + 1.
func (c Cover) Permute(newN int, perm []int) Cover {
	out := Cover{N: newN, Cubes: make([]Cube, 0, len(c.Cubes))}
	for _, cu := range c.Cubes {
		var nc Cube
		m := cu.Mask
		for m != 0 {
			v := bits.TrailingZeros64(m)
			m &= m - 1
			nc = nc.WithLit(perm[v], cu.LitVal(v))
		}
		out.Cubes = append(out.Cubes, nc)
	}
	return out
}

// Irredundant removes cubes that are contained in another cube of the
// cover (single-cube containment; not a full irredundant cover
// computation).
func (c Cover) Irredundant() Cover {
	keep := make([]bool, len(c.Cubes))
	for i := range keep {
		keep[i] = true
	}
	for i, ci := range c.Cubes {
		if !keep[i] {
			continue
		}
		for j, cj := range c.Cubes {
			if i == j || !keep[j] {
				continue
			}
			if ci.Contains(cj) {
				keep[j] = false
			}
		}
	}
	out := Cover{N: c.N, Cubes: make([]Cube, 0, len(c.Cubes))}
	for i, cu := range c.Cubes {
		if keep[i] {
			out.Cubes = append(out.Cubes, cu)
		}
	}
	return out
}

// mergePass performs one sweep of distance-1 merging; changed reports
// whether any pair was merged.
func (c Cover) mergePass() (Cover, bool) {
	used := make([]bool, len(c.Cubes))
	var out []Cube
	changed := false
	for i := 0; i < len(c.Cubes); i++ {
		if used[i] {
			continue
		}
		cur := c.Cubes[i]
		for j := i + 1; j < len(c.Cubes); j++ {
			if used[j] {
				continue
			}
			if m, ok := cur.MergeDistance1(c.Cubes[j]); ok {
				cur = m
				used[j] = true
				changed = true
			}
		}
		out = append(out, cur)
	}
	return Cover{N: c.N, Cubes: out}, changed
}

// Simplify repeatedly applies distance-1 merging and containment removal
// until a fixed point. It preserves the function exactly.
func (c Cover) Simplify() Cover {
	cur := c.Irredundant()
	for {
		next, changed := cur.mergePass()
		next = next.Irredundant()
		if !changed {
			return next
		}
		cur = next
	}
}

// IsConstFalse reports whether the cover is the constant false. This is
// exact: any cube covers at least one minterm.
func (c Cover) IsConstFalse() bool { return len(c.Cubes) == 0 }

// HasTautologyCube reports whether some cube is the empty cube (constant
// true); a quick sufficient — not necessary — tautology test.
func (c Cover) HasTautologyCube() bool {
	for _, cu := range c.Cubes {
		if cu.Mask == 0 {
			return true
		}
	}
	return false
}

// IsTautology decides exactly whether the cover is the constant true, by
// recursive Shannon expansion on the most-tested variable.
func (c Cover) IsTautology() bool {
	if c.HasTautologyCube() {
		return true
	}
	if len(c.Cubes) == 0 {
		return false
	}
	v := c.mostTestedVar()
	if v < 0 {
		return false
	}
	return c.Cofactor(v, false).IsTautology() && c.Cofactor(v, true).IsTautology()
}

// MostTestedVar returns the variable appearing in the most cubes, or -1
// when no cube tests any variable — the classic Shannon splitting choice.
func (c Cover) MostTestedVar() int { return c.mostTestedVar() }

// mostTestedVar returns the variable appearing in the most cubes, or -1
// when no cube tests any variable.
func (c Cover) mostTestedVar() int {
	counts := make(map[int]int)
	for _, cu := range c.Cubes {
		m := cu.Mask
		for m != 0 {
			v := bits.TrailingZeros64(m)
			m &= m - 1
			counts[v]++
		}
	}
	best, bestN := -1, 0
	for v, n := range counts {
		if n > bestN || (n == bestN && (best == -1 || v < best)) {
			best, bestN = v, n
		}
	}
	return best
}

// TT converts the cover to a truth table. N must be at most TTMaxVars.
func (c Cover) TT() (TT, error) {
	if c.N > TTMaxVars {
		return TT{}, fmt.Errorf("logic: cover over %d variables exceeds truth-table limit %d", c.N, TTMaxVars)
	}
	t := NewTT(c.N)
	for _, cu := range c.Cubes {
		t.orCube(cu)
	}
	return t, nil
}

// MustTT is TT for statically narrow covers; it panics when N exceeds
// TTMaxVars.
func (c Cover) MustTT() TT {
	t, err := c.TT()
	if err != nil {
		panic(err)
	}
	return t
}

// Equal decides semantic equality via truth tables; both covers must be at
// most TTMaxVars wide.
func (c Cover) Equal(d Cover) (bool, error) {
	if c.N != d.N {
		return false, nil
	}
	ct, err := c.TT()
	if err != nil {
		return false, err
	}
	dt, err := d.TT()
	if err != nil {
		return false, err
	}
	return ct.Equal(dt), nil
}

// Not returns the complement, computed through a truth table; the cover
// must be at most TTMaxVars wide.
func (c Cover) Not() (Cover, error) {
	t, err := c.TT()
	if err != nil {
		return Cover{}, err
	}
	return t.Not().ToCover(), nil
}

// NumCubes returns the number of product terms.
func (c Cover) NumCubes() int { return len(c.Cubes) }

// NumLits returns the total literal count across cubes, a standard
// two-level cost metric.
func (c Cover) NumLits() int {
	n := 0
	for _, cu := range c.Cubes {
		n += cu.NumLits()
	}
	return n
}

// Clone returns a deep copy.
func (c Cover) Clone() Cover {
	return Cover{N: c.N, Cubes: append([]Cube(nil), c.Cubes...)}
}

// Canon returns a canonical ordering of cubes, useful for deterministic
// output and diffing.
func (c Cover) Canon() Cover {
	out := c.Clone()
	sort.Slice(out.Cubes, func(i, j int) bool {
		if out.Cubes[i].Mask != out.Cubes[j].Mask {
			return out.Cubes[i].Mask < out.Cubes[j].Mask
		}
		return out.Cubes[i].Val < out.Cubes[j].Val
	})
	return out
}

// String renders the cover as semicolon-separated PLA rows.
func (c Cover) String() string {
	if len(c.Cubes) == 0 {
		return fmt.Sprintf("const0/%d", c.N)
	}
	rows := make([]string, len(c.Cubes))
	for i, cu := range c.Cubes {
		rows[i] = cu.String(c.N)
	}
	return strings.Join(rows, ";")
}

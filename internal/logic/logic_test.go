package logic

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// randCover produces a random cover for property tests.
func randCover(r *rand.Rand, n, maxCubes int) Cover {
	c := Cover{N: n}
	k := r.Intn(maxCubes + 1)
	for i := 0; i < k; i++ {
		var cu Cube
		for v := 0; v < n; v++ {
			switch r.Intn(3) {
			case 0:
				cu = cu.WithLit(v, false)
			case 1:
				cu = cu.WithLit(v, true)
			}
		}
		c.Cubes = append(c.Cubes, cu)
	}
	return c
}

func TestCubeFromString(t *testing.T) {
	c, err := CubeFromString("1-0")
	if err != nil {
		t.Fatal(err)
	}
	if c.Mask != 0b101 || c.Val != 0b001 {
		t.Fatalf("got mask=%b val=%b", c.Mask, c.Val)
	}
	if !c.Eval(0b001) || !c.Eval(0b011) || c.Eval(0b000) || c.Eval(0b101) {
		t.Fatal("cube evaluation wrong")
	}
	if c.String(3) != "1-0" {
		t.Fatalf("roundtrip got %q", c.String(3))
	}
	if _, err := CubeFromString("10x"); err == nil {
		t.Fatal("expected error on invalid character")
	}
}

func TestCubeContains(t *testing.T) {
	a, _ := CubeFromString("1--")
	b, _ := CubeFromString("10-")
	c, _ := CubeFromString("0--")
	if !a.Contains(b) {
		t.Fatal("1-- should contain 10-")
	}
	if b.Contains(a) || a.Contains(c) {
		t.Fatal("10- and 0-- should not contain 1--")
	}
}

func TestCubeMergeDistance1(t *testing.T) {
	a, _ := CubeFromString("10-")
	b, _ := CubeFromString("11-")
	m, ok := a.MergeDistance1(b)
	if !ok {
		t.Fatal("expected merge")
	}
	if m.String(3) != "1--" {
		t.Fatalf("merged to %q", m.String(3))
	}
	c, _ := CubeFromString("0--")
	if _, ok := a.MergeDistance1(c); ok {
		t.Fatal("different masks must not merge")
	}
}

func TestCoverEvalBasics(t *testing.T) {
	c := MustFromStrings("11-", "--1")
	cases := []struct {
		in   uint64
		want bool
	}{
		{0b000, false}, {0b011, true}, {0b100, true}, {0b111, true}, {0b010, false},
	}
	for _, tc := range cases {
		if got := c.Eval(tc.in); got != tc.want {
			t.Errorf("Eval(%03b) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestConstCovers(t *testing.T) {
	f := Const(3, false)
	tr := Const(3, true)
	if !f.IsConstFalse() || tr.IsConstFalse() {
		t.Fatal("const classification wrong")
	}
	if !tr.HasTautologyCube() || f.HasTautologyCube() {
		t.Fatal("tautology classification wrong")
	}
	if f.Eval(5) || !tr.Eval(5) {
		t.Fatal("const eval wrong")
	}
}

func TestCofactorShannon(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(6)
		c := randCover(r, n, 8)
		v := r.Intn(n)
		f1 := c.Cofactor(v, true)
		f0 := c.Cofactor(v, false)
		for m := uint64(0); m < uint64(1)<<n; m++ {
			var want bool
			if m&(1<<v) != 0 {
				want = f1.Eval(m)
			} else {
				want = f0.Eval(m)
			}
			if c.Eval(m) != want {
				t.Fatalf("Shannon violated: n=%d v=%d m=%b cover=%s", n, v, m, c)
			}
			// Cofactors must not depend on v.
			if f1.Eval(m) != f1.Eval(m^(1<<v)) || f0.Eval(m) != f0.Eval(m^(1<<v)) {
				t.Fatalf("cofactor depends on cofactored variable")
			}
		}
	}
}

func TestSimplifyPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(7)
		c := randCover(r, n, 10)
		s := c.Simplify()
		for m := uint64(0); m < uint64(1)<<n; m++ {
			if c.Eval(m) != s.Eval(m) {
				t.Fatalf("simplify changed function at %b: %s -> %s", m, c, s)
			}
		}
		if len(s.Cubes) > len(c.Cubes) {
			t.Fatalf("simplify grew the cover: %d -> %d", len(c.Cubes), len(s.Cubes))
		}
	}
}

func TestIrredundantPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(6)
		c := randCover(r, n, 8)
		// Duplicate some cubes to create redundancy.
		if len(c.Cubes) > 0 {
			c.Cubes = append(c.Cubes, c.Cubes[0])
		}
		s := c.Irredundant()
		for m := uint64(0); m < uint64(1)<<n; m++ {
			if c.Eval(m) != s.Eval(m) {
				t.Fatalf("irredundant changed function")
			}
		}
	}
}

func TestEvalWordsMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(10)
		c := randCover(r, n, 12)
		in := make([]uint64, n)
		for i := range in {
			in[i] = r.Uint64()
		}
		got := c.EvalWords(in)
		for p := 0; p < 64; p++ {
			var assign uint64
			for i := 0; i < n; i++ {
				if in[i]&(1<<p) != 0 {
					assign |= 1 << i
				}
			}
			want := c.Eval(assign)
			if (got&(1<<p) != 0) != want {
				t.Fatalf("EvalWords bit %d mismatch (n=%d cover=%s)", p, n, c)
			}
		}
	}
}

func TestNotViaTT(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(6)
		a := randCover(r, n, 6)
		na, err := a.Not()
		if err != nil {
			t.Fatal(err)
		}
		for m := uint64(0); m < uint64(1)<<n; m++ {
			if na.Eval(m) == a.Eval(m) {
				t.Fatalf("Not failed at %b", m)
			}
		}
	}
}

func TestCoverCompact(t *testing.T) {
	// f over 6 vars but only depends on vars 1 and 4.
	c := FromCubes(6,
		Cube{}.WithLit(1, true).WithLit(4, false),
		Cube{}.WithLit(4, true),
	)
	cc, vars := c.Compact()
	if cc.N != 2 || len(vars) != 2 || vars[0] != 1 || vars[1] != 4 {
		t.Fatalf("compact: N=%d vars=%v", cc.N, vars)
	}
	for m := uint64(0); m < 64; m++ {
		var small uint64
		for j, v := range vars {
			if m&(1<<v) != 0 {
				small |= 1 << j
			}
		}
		if c.Eval(m) != cc.Eval(small) {
			t.Fatalf("compact changed function")
		}
	}
}

func TestTTWideWords(t *testing.T) {
	// 8-variable parity exercises multi-word tables.
	p := TTFromFunc(8, func(m uint64) bool { return bits.OnesCount64(m)%2 == 1 })
	if len(p.W) != 4 {
		t.Fatalf("expected 4 words, got %d", len(p.W))
	}
	np := p.Not()
	ones := 0
	for m := uint64(0); m < 256; m++ {
		if p.Bit(m) == np.Bit(m) {
			t.Fatalf("complement agrees with parity at %b", m)
		}
		if p.Bit(m) {
			ones++
		}
	}
	if ones != 128 {
		t.Fatalf("parity ones = %d", ones)
	}
	if !np.Not().Equal(p) || np.Equal(p) {
		t.Fatal("double complement must restore parity")
	}
}

func TestCoverTTRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(8)
		c := randCover(r, n, 10)
		tt, err := c.TT()
		if err != nil {
			t.Fatal(err)
		}
		back := tt.ToCover()
		bt, err := back.TT()
		if err != nil {
			t.Fatal(err)
		}
		if !tt.Equal(bt) {
			t.Fatalf("tt->cover->tt changed function: %s", c)
		}
	}
}

func TestWord4Roundtrip(t *testing.T) {
	for _, w := range []uint16{0x0000, 0xffff, 0x8000, 0x6996, 0xcafe} {
		tt := TTFromFunc(4, func(m uint64) bool { return w>>m&1 != 0 })
		got, err := tt.Word4()
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("word4 roundtrip %04x -> %04x", w, got)
		}
	}
	// Narrower tables replicate across unused variables.
	x := TTFromFunc(1, func(m uint64) bool { return m&1 != 0 })
	w, err := x.Word4()
	if err != nil {
		t.Fatal(err)
	}
	if w != 0xaaaa {
		t.Fatalf("projection word = %04x", w)
	}
}

func TestBuilders(t *testing.T) {
	for n := 1; n <= 6; n++ {
		and := AndN(n)
		or := OrN(n)
		nand := NandN(n)
		nor := NorN(n)
		xor := XorN(n)
		xnor := XnorN(n)
		for m := uint64(0); m < uint64(1)<<n; m++ {
			ones := bits.OnesCount64(m & maskN(n))
			all := ones == n
			none := ones == 0
			if and.Eval(m) != all {
				t.Fatalf("AndN(%d) at %b", n, m)
			}
			if or.Eval(m) != !none {
				t.Fatalf("OrN(%d) at %b", n, m)
			}
			if nand.Eval(m) != !all {
				t.Fatalf("NandN(%d) at %b", n, m)
			}
			if nor.Eval(m) != none {
				t.Fatalf("NorN(%d) at %b", n, m)
			}
			if xor.Eval(m) != (ones%2 == 1) {
				t.Fatalf("XorN(%d) at %b", n, m)
			}
			if xnor.Eval(m) != (ones%2 == 0) {
				t.Fatalf("XnorN(%d) at %b", n, m)
			}
		}
	}
}

func TestMuxMaj(t *testing.T) {
	mux := Mux2()
	for m := uint64(0); m < 8; m++ {
		sel, a, b := m&1 != 0, m&2 != 0, m&4 != 0
		want := a
		if sel {
			want = b
		}
		if mux.Eval(m) != want {
			t.Fatalf("Mux2 at %b", m)
		}
	}
	maj := Maj3()
	for m := uint64(0); m < 8; m++ {
		want := bits.OnesCount64(m) >= 2
		if maj.Eval(m) != want {
			t.Fatalf("Maj3 at %b", m)
		}
	}
}

func TestSymmetric9sym(t *testing.T) {
	// The MCNC 9sym function: true when 3..6 of the 9 inputs are true.
	f := Symmetric(9, func(k int) bool { return k >= 3 && k <= 6 })
	for m := uint64(0); m < 512; m++ {
		k := bits.OnesCount64(m)
		if f.Eval(m) != (k >= 3 && k <= 6) {
			t.Fatalf("9sym wrong at %09b", m)
		}
	}
	if len(f.Cubes) >= 512 {
		t.Fatalf("simplify did not reduce the minterm list: %d cubes", len(f.Cubes))
	}
}

func TestEqConst(t *testing.T) {
	f := EqConst(5, 19)
	for m := uint64(0); m < 32; m++ {
		if f.Eval(m) != (m == 19) {
			t.Fatalf("EqConst at %b", m)
		}
	}
}

// Property: Canon is a semantic no-op and is idempotent.
func TestQuickCanon(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(37))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		a := randCover(r, n, 8)
		c := a.Canon()
		c2 := c.Canon()
		if len(c.Cubes) != len(c2.Cubes) {
			return false
		}
		for i := range c.Cubes {
			if c.Cubes[i] != c2.Cubes[i] {
				return false
			}
		}
		for m := uint64(0); m < uint64(1)<<n; m++ {
			if a.Eval(m) != c.Eval(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCoverEvalWords(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	c := randCover(r, 12, 20)
	in := make([]uint64, 12)
	for i := range in {
		in[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.EvalWords(in)
	}
}

func BenchmarkSymmetric9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Symmetric(9, func(k int) bool { return k >= 3 && k <= 6 })
	}
}

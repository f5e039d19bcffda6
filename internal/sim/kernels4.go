package sim

// Width-4 block kernels: one call evaluates all four lane words of a
// node. The scalar kernels (kernels.go) are below the inliner's budget
// only for k <= 2, so calling them per lane word re-loads the whole pair
// table from memory on every word. Every pair-table word is a broadcast
// (0 or all-ones), so the compiler stores the whole table as one bit per
// word in the node's msk field (pairBits) and these variants rebuild it
// in registers with shift/mask/negate arithmetic — instead of streaming a
// many-hundred-KB pair-table array from memory on every evaluation pass —
// then run the four lane words through the same Shannon-mux math.

// evalTab1r evaluates a 1-input LUT from its 2 pair bits.
func evalTab1r(pb uint16, a, o *vec4) {
	m := uint64(pb)
	t0 := -(m & 1)
	t1 := -(m >> 1 & 1)
	o[0] = t0 ^ (a[0] & t1)
	o[1] = t0 ^ (a[1] & t1)
	o[2] = t0 ^ (a[2] & t1)
	o[3] = t0 ^ (a[3] & t1)
}

// evalTab2r evaluates a 2-input LUT from its 4 pair bits.
func evalTab2r(pb uint16, a, b, o *vec4) {
	m := uint64(pb)
	t0 := -(m & 1)
	t1 := -(m >> 1 & 1)
	t2 := -(m >> 2 & 1)
	t3 := -(m >> 3 & 1)
	for w := 0; w < 4; w++ {
		r0 := t0 ^ (a[w] & t1)
		r1 := t2 ^ (a[w] & t3)
		o[w] = r0 ^ (b[w] & (r0 ^ r1))
	}
}

// evalTab3r evaluates a 3-input LUT from its 8 pair bits.
func evalTab3r(pb uint16, a, b, c, o *vec4) {
	m := uint64(pb)
	t0 := -(m & 1)
	t1 := -(m >> 1 & 1)
	t2 := -(m >> 2 & 1)
	t3 := -(m >> 3 & 1)
	t4 := -(m >> 4 & 1)
	t5 := -(m >> 5 & 1)
	t6 := -(m >> 6 & 1)
	t7 := -(m >> 7 & 1)
	for w := 0; w < 4; w++ {
		av, bv := a[w], b[w]
		r0 := t0 ^ (av & t1)
		r1 := t2 ^ (av & t3)
		r2 := t4 ^ (av & t5)
		r3 := t6 ^ (av & t7)
		s0 := r0 ^ (bv & (r0 ^ r1))
		s1 := r2 ^ (bv & (r2 ^ r3))
		o[w] = s0 ^ (c[w] & (s0 ^ s1))
	}
}

// evalTab4r evaluates a 4-input LUT from its 16 pair bits.
func evalTab4r(pb uint16, a, b, c, d, o *vec4) {
	m := uint64(pb)
	t0 := -(m & 1)
	t1 := -(m >> 1 & 1)
	t2 := -(m >> 2 & 1)
	t3 := -(m >> 3 & 1)
	t4 := -(m >> 4 & 1)
	t5 := -(m >> 5 & 1)
	t6 := -(m >> 6 & 1)
	t7 := -(m >> 7 & 1)
	t8 := -(m >> 8 & 1)
	t9 := -(m >> 9 & 1)
	t10 := -(m >> 10 & 1)
	t11 := -(m >> 11 & 1)
	t12 := -(m >> 12 & 1)
	t13 := -(m >> 13 & 1)
	t14 := -(m >> 14 & 1)
	t15 := -(m >> 15 & 1)
	for w := 0; w < 4; w++ {
		av, bv, cv := a[w], b[w], c[w]
		r0 := t0 ^ (av & t1)
		r1 := t2 ^ (av & t3)
		r2 := t4 ^ (av & t5)
		r3 := t6 ^ (av & t7)
		r4 := t8 ^ (av & t9)
		r5 := t10 ^ (av & t11)
		r6 := t12 ^ (av & t13)
		r7 := t14 ^ (av & t15)
		s0 := r0 ^ (bv & (r0 ^ r1))
		s1 := r2 ^ (bv & (r2 ^ r3))
		s2 := r4 ^ (bv & (r4 ^ r5))
		s3 := r6 ^ (bv & (r6 ^ r7))
		u0 := s0 ^ (cv & (s0 ^ s1))
		u1 := s2 ^ (cv & (s2 ^ s3))
		o[w] = u0 ^ (d[w] & (u0 ^ u1))
	}
}

// Classified block kernels. The compile-time classifier (classify.go)
// lowers most mapped LUTs to table-free forms; these kernels decode the
// 16-bit descriptor into broadcast masks — a handful of register ops per
// call — and then run 4-15 word ops per lane word, versus ~37 plus table
// loads for the generic four-input mux tree. Input pointers arrive
// already permuted by the caller (descriptor bits 10..14), so position j
// here is formula position j.

// chainEdge applies one chain connective branchlessly: opM selects the
// connective (all-ones = XOR, zero = AND) and eM is the edge complement.
func chainEdge(acc, in, opM, eM uint64) uint64 {
	and := acc & in
	return and ^ (opM & (and ^ (acc ^ in))) ^ eM
}

// evalXor2x4 evaluates 2-input parity (descriptor bit 0: complement).
func evalXor2x4(msk uint16, a, b, o *vec4) {
	inv := -uint64(msk & 1)
	o[0] = a[0] ^ b[0] ^ inv
	o[1] = a[1] ^ b[1] ^ inv
	o[2] = a[2] ^ b[2] ^ inv
	o[3] = a[3] ^ b[3] ^ inv
}

// evalXor3x4 evaluates 3-input parity.
func evalXor3x4(msk uint16, a, b, c, o *vec4) {
	inv := -uint64(msk & 1)
	o[0] = a[0] ^ b[0] ^ c[0] ^ inv
	o[1] = a[1] ^ b[1] ^ c[1] ^ inv
	o[2] = a[2] ^ b[2] ^ c[2] ^ inv
	o[3] = a[3] ^ b[3] ^ c[3] ^ inv
}

// evalXor4x4 evaluates 4-input parity.
func evalXor4x4(msk uint16, a, b, c, d, o *vec4) {
	inv := -uint64(msk & 1)
	o[0] = a[0] ^ b[0] ^ c[0] ^ d[0] ^ inv
	o[1] = a[1] ^ b[1] ^ c[1] ^ d[1] ^ inv
	o[2] = a[2] ^ b[2] ^ c[2] ^ d[2] ^ inv
	o[3] = a[3] ^ b[3] ^ c[3] ^ d[3] ^ inv
}

// evalChain2x4 evaluates a 2-input read-once chain:
// f = (a^x0 op1 b^x1) ^ e1.
func evalChain2x4(msk uint16, a, b, o *vec4) {
	x0 := -uint64(msk & 1)
	x1 := -uint64(msk >> 1 & 1)
	e1 := -uint64(msk >> 4 & 1)
	op1 := -uint64(msk >> 7 & 1)
	for w := 0; w < 4; w++ {
		o[w] = chainEdge(a[w]^x0, b[w]^x1, op1, e1)
	}
}

// evalChain3x4 evaluates a 3-input read-once chain:
// f = ((a^x0 op1 b^x1)^e1 op2 c^x2) ^ e2.
func evalChain3x4(msk uint16, a, b, c, o *vec4) {
	x0 := -uint64(msk & 1)
	x1 := -uint64(msk >> 1 & 1)
	x2 := -uint64(msk >> 2 & 1)
	e1 := -uint64(msk >> 4 & 1)
	e2 := -uint64(msk >> 5 & 1)
	op1 := -uint64(msk >> 7 & 1)
	op2 := -uint64(msk >> 8 & 1)
	for w := 0; w < 4; w++ {
		acc := chainEdge(a[w]^x0, b[w]^x1, op1, e1)
		o[w] = chainEdge(acc, c[w]^x2, op2, e2)
	}
}

// evalChain4x4 evaluates a 4-input read-once chain:
// f = (((a^x0 op1 b^x1)^e1 op2 c^x2)^e2 op3 d^x3) ^ e3.
func evalChain4x4(msk uint16, a, b, c, d, o *vec4) {
	x0 := -uint64(msk & 1)
	x1 := -uint64(msk >> 1 & 1)
	x2 := -uint64(msk >> 2 & 1)
	x3 := -uint64(msk >> 3 & 1)
	e1 := -uint64(msk >> 4 & 1)
	e2 := -uint64(msk >> 5 & 1)
	e3 := -uint64(msk >> 6 & 1)
	op1 := -uint64(msk >> 7 & 1)
	op2 := -uint64(msk >> 8 & 1)
	op3 := -uint64(msk >> 9 & 1)
	for w := 0; w < 4; w++ {
		acc := chainEdge(a[w]^x0, b[w]^x1, op1, e1)
		acc = chainEdge(acc, c[w]^x2, op2, e2)
		o[w] = chainEdge(acc, d[w]^x3, op3, e3)
	}
}

// evalTree4x4 evaluates a balanced read-once tree:
// f = (((a^x0 opL b^x1)^eL) opTop ((c^x2 opR d^x3)^eR)) ^ eTop.
func evalTree4x4(msk uint16, a, b, c, d, o *vec4) {
	x0 := -uint64(msk & 1)
	x1 := -uint64(msk >> 1 & 1)
	x2 := -uint64(msk >> 2 & 1)
	x3 := -uint64(msk >> 3 & 1)
	eL := -uint64(msk >> 4 & 1)
	eR := -uint64(msk >> 5 & 1)
	eTop := -uint64(msk >> 6 & 1)
	opL := -uint64(msk >> 7 & 1)
	opR := -uint64(msk >> 8 & 1)
	opTop := -uint64(msk >> 9 & 1)
	for w := 0; w < 4; w++ {
		l := chainEdge(a[w]^x0, b[w]^x1, opL, eL)
		r := chainEdge(c[w]^x2, d[w]^x3, opR, eR)
		o[w] = chainEdge(l, r, opTop, eTop)
	}
}

// evalMaj3x4 evaluates a 3-input majority:
// f = maj(a^x0, b^x1, c^x2) ^ inv.
func evalMaj3x4(msk uint16, a, b, c, o *vec4) {
	x0 := -uint64(msk & 1)
	x1 := -uint64(msk >> 1 & 1)
	x2 := -uint64(msk >> 2 & 1)
	inv := -uint64(msk >> 3 & 1)
	for w := 0; w < 4; w++ {
		av := a[w] ^ x0
		bv := b[w] ^ x1
		cv := c[w] ^ x2
		o[w] = (av&bv | (av|bv)&cv) ^ inv
	}
}

// evalSplit4x4 evaluates a 4-input split kernel: the arbitrary 3-input
// residual g (pair bits 0..7, rebuilt in registers) with the fourth pin
// chained on top: f = (g(a,b,c) op p^xw) ^ e.
func evalSplit4x4(msk uint16, a, b, c, p, o *vec4) {
	m := uint64(msk)
	t0 := -(m & 1)
	t1 := -(m >> 1 & 1)
	t2 := -(m >> 2 & 1)
	t3 := -(m >> 3 & 1)
	t4 := -(m >> 4 & 1)
	t5 := -(m >> 5 & 1)
	t6 := -(m >> 6 & 1)
	t7 := -(m >> 7 & 1)
	xw := -(m >> 8 & 1)
	opM := -(m >> 9 & 1)
	eM := -(m >> 15 & 1)
	for w := 0; w < 4; w++ {
		av, bv := a[w], b[w]
		r0 := t0 ^ (av & t1)
		r1 := t2 ^ (av & t3)
		r2 := t4 ^ (av & t5)
		r3 := t6 ^ (av & t7)
		s0 := r0 ^ (bv & (r0 ^ r1))
		s1 := r2 ^ (bv & (r2 ^ r3))
		g := s0 ^ (c[w] & (s0 ^ s1))
		o[w] = chainEdge(g, p[w]^xw, opM, eM)
	}
}

// evalMux3x4 evaluates a 2:1 mux: f = (s ? a^xa : b^xb) ^ inv.
func evalMux3x4(msk uint16, s, a, b, o *vec4) {
	xa := -uint64(msk & 1)
	xb := -uint64(msk >> 1 & 1)
	inv := -uint64(msk >> 2 & 1)
	for w := 0; w < 4; w++ {
		av := a[w] ^ xa
		bv := b[w] ^ xb
		o[w] = bv ^ (s[w] & (av ^ bv)) ^ inv
	}
}

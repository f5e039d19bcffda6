package sim

// Compile-time truth-table classification. Most mapped LUTs are not
// arbitrary functions: technology mapping packs fanout-free cones of
// AND/OR/NOT and XOR gates, so the bulk of any catalog design is parity
// functions, read-once AND/OR/XOR formulas (chains and balanced trees
// with complements pushed onto edges by De Morgan) and 2:1 muxes. The
// generic pair-table kernel spends ~37 word ops plus 2^k table loads per
// node regardless; the classified forms need 4-15 register-only ops. The
// classifier runs once per cell at compile time and encodes the detected
// shape — an input permutation, per-input complements, per-edge
// connectives and complements — into a 16-bit descriptor (node.msk) that
// the execution core's fast arms decode into broadcast masks.
//
// Classification is purely an execution-plan choice: the node keeps its
// truth table and expanded pair table, its fanin CSR stays in cell pin
// order, and the perturbed (hooked) pass still evaluates classified nodes
// through the generic table kernels, so lane faults and lane patches are
// untouched.
//
// Descriptor layout (bit positions in node.msk):
//
//	opXor2..4:  bit 0: output complement. Inputs are symmetric — no
//	            permutation, no per-input complements.
//	opChain2..4: bits 0..3: per-position input complements,
//	            bits 4..6: per-edge output complements,
//	            bits 7..9: per-edge connective (0 = AND, 1 = XOR),
//	            bits 10..14: permutation index (position -> CSR pin).
//	            f = (((p0^x0 op1 p1^x1)^e1 op2 p2^x2)^e2 op3 p3^x3)^e3
//	opTree4:    bits 0..3: input complements (tree positions l0,l1,r0,r1),
//	            bit 4: eL, bit 5: eR, bit 6: eTop,
//	            bit 7: opL, bit 8: opR, bit 9: opTop (0 = AND, 1 = XOR),
//	            bits 10..14: permutation index.
//	            f = (((l0^x0 opL l1^x1)^eL) opTop ((r0^x2 opR r1^x3)^eR))^eTop
//	opMux3:     bit 0: complement on a, bit 1: complement on b,
//	            bit 2: output complement, bits 10..14: permutation index
//	            with roles (select, a, b).
//	            f = (s ? a^xa : b^xb) ^ inv
//	opMaj3:     bits 0..2: input complements, bit 3: output complement.
//	            Majority is symmetric — no permutation.
//	            f = maj(a^x0, b^x1, c^x2) ^ inv
//	opSplit4:   bits 0..7: pair bits (pairBits) of the 3-input residual
//	            function g, bit 8: chained-pin complement, bit 9: top
//	            connective (0 = AND, 1 = XOR), bits 10..14: permutation
//	            index with roles (g0, g1, g2, chained pin), bit 15: edge
//	            complement.
//	            f = (g(g0,g1,g2) op p^xw) ^ e

// permTab enumerates the 24 permutations of four pin positions; the
// 5-bit permutation index in a class descriptor selects one. Generated
// deterministically at init so encoder and decoder agree.
var permTab [24][4]uint8

func init() {
	p := [4]uint8{0, 1, 2, 3}
	idx := 0
	var gen func(i int)
	gen = func(i int) {
		if i == 4 {
			permTab[idx] = p
			idx++
			return
		}
		for j := i; j < 4; j++ {
			p[i], p[j] = p[j], p[i]
			gen(i + 1)
			p[i], p[j] = p[j], p[i]
		}
	}
	gen(0)
}

// permIndex returns the descriptor index of a permutation (unused tail
// positions must be identity).
func permIndex(p [4]uint8) uint16 {
	for i := range permTab {
		if permTab[i] == p {
			return uint16(i)
		}
	}
	panic("sim: permutation not in table")
}

// classifyTT tries to classify the k-input truth table (low 2^k bits of
// w4) into one of the fast-opcode forms. Returns the opcode and its msk
// descriptor, or ok=false when only the generic table kernel applies.
func classifyTT(w4 uint16, k int) (op uint8, msk uint16, ok bool) {
	if k < 2 || k > 4 {
		return 0, 0, false
	}
	n := 1 << uint(k)
	mask := uint16(1)<<uint(n) - 1
	v := w4 & mask

	par := uint16(0)
	for m := 0; m < n; m++ {
		if popcnt4(m)&1 == 1 {
			par |= 1 << uint(m)
		}
	}
	if v == par {
		return opXor2 + uint8(k-2), 0, true
	}
	if v == par^mask {
		return opXor2 + uint8(k-2), 1, true
	}

	pins := [4]uint8{0, 1, 2, 3}
	if perm, x, e, ops, found := detectChain(v, pins[:k]); found {
		for j := k; j < 4; j++ { // identity at unused tail positions
			perm[j] = uint8(j)
		}
		return opChain2 + uint8(k-2), x | e<<4 | ops<<7 | permIndex(perm)<<10, true
	}
	if k == 4 {
		if m, found := detectTree(v); found {
			return opTree4, m, true
		}
		if m, found := detectSplit4(v); found {
			return opSplit4, m, true
		}
	}
	if k == 3 {
		if m, found := detectMux(v); found {
			return opMux3, m, true
		}
		if m, found := detectMaj(v); found {
			return opMaj3, m, true
		}
	}
	return 0, 0, false
}

func popcnt4(m int) int {
	m = m&5 + m>>1&5
	return m&3 + m>>2&3
}

// detectChain decides whether v (a truth table over len(pins) pins, with
// minterm bit j addressed by pins[j]) is a read-once AND/XOR chain with
// complements, by peeling the outermost connective: an XOR edge on pin p
// means the two cofactors are complementary; an AND edge means one
// cofactor is constant (the constant is the edge complement). The
// surviving cofactor is the sub-chain, recursively. OR edges need no
// separate case — De Morgan turns them into AND edges with complements,
// which the x and e bits absorb.
func detectChain(v uint16, pins []uint8) (perm [4]uint8, x, e, ops uint16, ok bool) {
	k := len(pins)
	if k == 1 {
		switch v & 3 {
		case 2: // f = a
			perm[0] = pins[0]
			return perm, 0, 0, 0, true
		case 1: // f = ~a
			perm[0] = pins[0]
			return perm, 1, 0, 0, true
		}
		return perm, 0, 0, 0, false
	}
	rn := 1 << uint(k-1)
	rmask := uint16(1)<<uint(rn) - 1
	for j := 0; j < k; j++ {
		var cof [2]uint16
		for mm := 0; mm < rn; mm++ {
			low := mm & (1<<uint(j) - 1)
			high := mm >> uint(j) << uint(j+1)
			for b := 0; b < 2; b++ {
				m := high | b<<uint(j) | low
				cof[b] |= v >> uint(m) & 1 << uint(mm)
			}
		}
		var sub [4]uint8
		copy(sub[:], pins[:j])
		copy(sub[j:], pins[j+1:])
		try := func(g uint16, eBit, xBit, opBit uint16) bool {
			sp, sx, se, sops, sok := detectChain(g, sub[:k-1])
			if !sok {
				return false
			}
			perm = sp
			perm[k-1] = pins[j]
			x = sx | xBit<<uint(k-1)
			e = se | eBit<<uint(k-2)
			ops = sops | opBit<<uint(k-2)
			return true
		}
		if cof[0] == cof[1]^rmask && try(cof[0], 0, 0, 1) {
			return perm, x, e, ops, true
		}
		// AND edge, pin uncomplemented: f|pin=0 is the edge constant.
		if cof[0] == 0 && try(cof[1], 0, 0, 0) {
			return perm, x, e, ops, true
		}
		if cof[0] == rmask && try(cof[1]^rmask, 1, 0, 0) {
			return perm, x, e, ops, true
		}
		// AND edge, pin complemented: f|pin=1 is the edge constant.
		if cof[1] == 0 && try(cof[0], 0, 1, 0) {
			return perm, x, e, ops, true
		}
		if cof[1] == rmask && try(cof[0]^rmask, 1, 1, 0) {
			return perm, x, e, ops, true
		}
	}
	return perm, 0, 0, 0, false
}

// detectTree decides whether a 4-input table is a balanced two-level
// read-once formula (g1(p0,p1) opTop g2(p2,p3))^eTop. Viewing the table
// as a 4x4 matrix M[left minterm][right minterm]: under an XOR top every
// row is B or ~B; under an AND top every row is 0 or B. The row pattern
// determines g1, the common row determines g2, and each factor must
// itself be a 2-pin chain.
func detectTree(v uint16) (uint16, bool) {
	parts := [3][4]uint8{{0, 1, 2, 3}, {0, 2, 1, 3}, {0, 3, 1, 2}}
	for _, p := range parts {
		var rows [4]uint16
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				m := i&1<<p[0] | i>>1<<p[1] | j&1<<p[2] | j>>1<<p[3]
				rows[i] |= v >> uint(m) & 1 << uint(j)
			}
		}
		// XOR top: rows[i] = B ^ (A_i ? 15 : 0); eTop folds into B.
		{
			B := rows[0]
			A := uint16(0)
			good := true
			for i := 1; i < 4; i++ {
				switch rows[i] {
				case B:
				case B ^ 15:
					A |= 1 << uint(i)
				default:
					good = false
				}
			}
			if good {
				if m, ok := encodeTree(A, B, 1, 0, p); ok {
					return m, true
				}
			}
		}
		// AND top: rows of v (eTop=0) or ~v (eTop=1) are 0 or B.
		for eTop := uint16(0); eTop < 2; eTop++ {
			var A, B uint16
			good := true
			for i := 0; i < 4; i++ {
				r := rows[i]
				if eTop == 1 {
					r ^= 15
				}
				if r == 0 {
					continue
				}
				if B == 0 {
					B = r
				}
				if r != B {
					good = false
				}
				A |= 1 << uint(i)
			}
			if good && B != 0 {
				if m, ok := encodeTree(A, B, 0, eTop, p); ok {
					return m, true
				}
			}
		}
	}
	return 0, false
}

// encodeTree packs a verified tree decomposition, factoring each 2-pin
// side through detectChain (which supplies the side's connective,
// complements and pin order).
func encodeTree(A, B uint16, opTop, eTop uint16, p [4]uint8) (uint16, bool) {
	lperm, lx, le, lops, lok := detectChain(A, []uint8{p[0], p[1]})
	if !lok {
		return 0, false
	}
	rperm, rx, re, rops, rok := detectChain(B, []uint8{p[2], p[3]})
	if !rok {
		return 0, false
	}
	perm := [4]uint8{lperm[0], lperm[1], rperm[0], rperm[1]}
	msk := lx&3 | rx&3<<2 | le&1<<4 | re&1<<5 | eTop<<6 |
		lops&1<<7 | rops&1<<8 | opTop<<9 | permIndex(perm)<<10
	return msk, true
}

// detectMaj decides whether a 3-input table is a majority function with
// complements on inputs and output. Majority is the one common mapped
// 3-input shape that no read-once decomposition covers (every input is
// read twice); carry chains are full of it.
func detectMaj(v uint16) (uint16, bool) {
	for params := 0; params < 16; params++ {
		good := true
		for m := 0; m < 8 && good; m++ {
			a := m&1 ^ params&1
			b := m>>1&1 ^ params>>1&1
			c := m>>2&1 ^ params>>2&1
			maj := (a&b | (a|b)&c) ^ params>>3&1
			if maj != int(v>>uint(m)&1) {
				good = false
			}
		}
		if good {
			return uint16(params), true
		}
	}
	return 0, false
}

// detectSplit4 decides whether one pin of a 4-input table enters through
// a top-level AND or XOR connective — the residual 3-input function g is
// arbitrary (its 8 pair bits ride in the descriptor and the kernel
// rebuilds its table in registers). The cofactor tests mirror
// detectChain: an XOR pin means complementary cofactors (the edge
// complement folds into g), an AND pin means one constant cofactor.
// Mapped netlists are full of this shape — a mux or sum term gated by an
// enable, or a parity tap off an arbitrary cone.
func detectSplit4(v uint16) (uint16, bool) {
	enc := func(g uint16, j int, xw, op, e uint16) uint16 {
		var perm [4]uint8
		qi := 0
		for p := 0; p < 4; p++ {
			if p != j {
				perm[qi] = uint8(p)
				qi++
			}
		}
		perm[3] = uint8(j)
		return pairBits(g, 3) | xw<<8 | op<<9 | permIndex(perm)<<10 | e<<15
	}
	for j := 0; j < 4; j++ {
		var cof [2]uint16
		for mm := 0; mm < 8; mm++ {
			low := mm & (1<<uint(j) - 1)
			high := mm >> uint(j) << uint(j+1)
			for b := 0; b < 2; b++ {
				m := high | b<<uint(j) | low
				cof[b] |= v >> uint(m) & 1 << uint(mm)
			}
		}
		switch {
		case cof[0] == cof[1]^0xff: // f = g ^ p
			return enc(cof[0], j, 0, 1, 0), true
		case cof[0] == 0: // f = g & p
			return enc(cof[1], j, 0, 0, 0), true
		case cof[0] == 0xff: // f = g | ~p = ~(~g & ~p)
			return enc(cof[1]^0xff, j, 0, 0, 1), true
		case cof[1] == 0: // f = g & ~p
			return enc(cof[0], j, 1, 0, 0), true
		case cof[1] == 0xff: // f = g | p = ~(~g & p)
			return enc(cof[0]^0xff, j, 1, 0, 1), true
		}
	}
	return 0, false
}

// detectMux decides whether a 3-input table is a 2:1 mux
// (s ? a^xa : b^xb)^inv under some assignment of pins to roles.
func detectMux(v uint16) (uint16, bool) {
	for si := 0; si < 3; si++ {
		for ai := 0; ai < 3; ai++ {
			if ai == si {
				continue
			}
			bi := 3 - si - ai
			for params := 0; params < 8; params++ {
				xa, xb, inv := params&1, params>>1&1, params>>2&1
				good := true
				for m := 0; m < 8 && good; m++ {
					sv := m >> uint(si) & 1
					av := m>>uint(ai)&1 ^ xa
					bv := m>>uint(bi)&1 ^ xb
					r := bv
					if sv == 1 {
						r = av
					}
					if r^inv != int(v>>uint(m)&1) {
						good = false
					}
				}
				if good {
					perm := [4]uint8{uint8(si), uint8(ai), uint8(bi), 3}
					return uint16(xa) | uint16(xb)<<1 | uint16(inv)<<2 | permIndex(perm)<<10, true
				}
			}
		}
	}
	return 0, false
}

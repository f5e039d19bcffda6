package sim

// Truth-table kernels: a k-input LUT over 64-pattern words evaluated by
// unrolled Shannon muxing. The 16-bit configuration word is expanded at
// compile time into a flat pair table of broadcast words — for every pair
// of adjacent minterms (2m, 2m+1) the table stores
//
//	t[2m]   = B(2m)            (all-ones iff the function is 1 on 2m)
//	t[2m+1] = B(2m) ^ B(2m+1)
//
// so the first mux level over variable a collapses to two ops,
// r_m = t[2m] ^ (a & t[2m+1]), with all 2^(k-1) first-level muxes
// independent (good ILP). The remaining levels are the standard
// mux(s,x,y) = x ^ (s & (x^y)). Everything below is straight-line word
// arithmetic — no branches, no per-cycle allocation — and inlines into
// the eval loop.

// expandTT builds the pair table of a k-input LUT (k in 1..4) from its
// 16-bit truth table: 2^(k-1) pairs, 2^k words.
func expandTT(tt uint16, k int) []uint64 {
	bc := func(m int) uint64 { return -uint64(tt >> m & 1) }
	out := make([]uint64, 1<<k)
	for m := 0; m < 1<<(k-1); m++ {
		out[2*m] = bc(2 * m)
		out[2*m+1] = bc(2*m) ^ bc(2*m+1)
	}
	return out
}

// evalTab1 evaluates a 1-input LUT from its 2-word pair table.
func evalTab1(t []uint64, a uint64) uint64 {
	return t[0] ^ (a & t[1])
}

// evalTab2 evaluates a 2-input LUT from its 4-word pair table; variable b
// muxes the two first-level results.
func evalTab2(t []uint64, a, b uint64) uint64 {
	r0 := t[0] ^ (a & t[1])
	r1 := t[2] ^ (a & t[3])
	return r0 ^ (b & (r0 ^ r1))
}

// evalTab3 evaluates a 3-input LUT from its 8-word pair table.
func evalTab3(t []uint64, a, b, c uint64) uint64 {
	r0 := t[0] ^ (a & t[1])
	r1 := t[2] ^ (a & t[3])
	r2 := t[4] ^ (a & t[5])
	r3 := t[6] ^ (a & t[7])
	s0 := r0 ^ (b & (r0 ^ r1))
	s1 := r2 ^ (b & (r2 ^ r3))
	return s0 ^ (c & (s0 ^ s1))
}

// evalTab4 evaluates a 4-input LUT from its 16-word pair table; variable d
// muxes the two 3-input halves.
func evalTab4(t []uint64, a, b, c, d uint64) uint64 {
	r0 := t[0] ^ (a & t[1])
	r1 := t[2] ^ (a & t[3])
	r2 := t[4] ^ (a & t[5])
	r3 := t[6] ^ (a & t[7])
	r4 := t[8] ^ (a & t[9])
	r5 := t[10] ^ (a & t[11])
	r6 := t[12] ^ (a & t[13])
	r7 := t[14] ^ (a & t[15])
	s0 := r0 ^ (b & (r0 ^ r1))
	s1 := r2 ^ (b & (r2 ^ r3))
	s2 := r4 ^ (b & (r4 ^ r5))
	s3 := r6 ^ (b & (r6 ^ r7))
	u0 := s0 ^ (c & (s0 ^ s1))
	u1 := s2 ^ (c & (s2 ^ s3))
	return u0 ^ (d & (u0 ^ u1))
}

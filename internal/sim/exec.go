package sim

// Evaluation passes of the execution core. Every pass walks the whole
// level-major node schedule once; the width decides which one Eval runs:
//
//   - evalPlainRange1: width 1, one uint64 per net — the 64-lane hot path,
//     bit-identical to the pre-vector engine;
//   - evalPlainRangeB: widths divisible by four, streaming each node's
//     lane vector through the four-word block kernels in kernels4.go;
//   - evalHookedRange: the stride-W program plus the per-node override,
//     lane-fault and lane-patch hooks — the fault- and repair-parallel
//     pass. Unperturbed widths above 1 that are not a multiple of four run
//     it too: with no hook armed its three nil checks are all it adds.
//
// evalHookedSched is the hooked pass over a subset of the schedule, the
// nodes of a fanout cone (cone.go); Eval never runs it.
//
// The opcode switch, table slicing and fanin index arithmetic are paid
// once per node, then the lane words stream through straight-line word
// arithmetic.

import "unsafe"

// vec4 is the unit the block kernels work in: four words of one net's
// lane vector, addressed as a fixed-size array so the kernel bodies are
// straight-line word arithmetic with constant indices and no per-element
// bounds checks — the difference between a ~1.3x and a >2x vector win.
type vec4 = [4]uint64

func (m *Machine) evalPlainRange1() {
	v := m.val
	fan := m.fanin
	ttab := m.ttab
	nodes := m.nodes
	buf := m.buf
	for i := range nodes {
		n := nodes[i]
		s := n.start
		switch n.op {
		case opTT2, opXor2, opChain2:
			v[n.out] = evalTab2(ttab[n.aux:n.aux+4:n.aux+4], v[fan[s]], v[fan[s+1]])
		case opTT3, opXor3, opChain3, opMux3, opMaj3:
			v[n.out] = evalTab3(ttab[n.aux:n.aux+8:n.aux+8], v[fan[s]], v[fan[s+1]], v[fan[s+2]])
		case opTT4, opXor4, opChain4, opTree4, opSplit4:
			v[n.out] = evalTab4(ttab[n.aux:n.aux+16:n.aux+16], v[fan[s]], v[fan[s+1]], v[fan[s+2]], v[fan[s+3]])
		case opTT1:
			v[n.out] = evalTab1(ttab[n.aux:n.aux+2:n.aux+2], v[fan[s]])
		case opConst:
			v[n.out] = -uint64(n.tt & 1)
		default: // opCover
			b := buf[:n.nin]
			for j := int32(0); j < n.nin; j++ {
				b[j] = v[fan[s+j]]
			}
			v[n.out] = m.covers[n.aux].EvalWords(b)
		}
	}
}

// evalHookedRange is the perturbed pass: the plain program with the
// per-node override, lane-mutation and lane-patch hooks, at any width.
// Each node's opcode dispatch is shared across its whole lane vector; the
// hooks then touch only the specific lane words their masks address.
func (m *Machine) evalHookedRange() {
	W := m.width
	v := m.val
	fan := m.fanin
	ttab := m.ttab
	nodes := m.nodes
	buf := m.buf
	for i := range nodes {
		n := nodes[i]
		s := n.start
		o := int(n.out) * W
		switch n.op {
		case opTT2, opXor2, opChain2:
			t := ttab[n.aux : n.aux+4 : n.aux+4]
			a := int(fan[s]) * W
			b := int(fan[s+1]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab2(t, v[a+w], v[b+w])
			}
		case opTT3, opXor3, opChain3, opMux3, opMaj3:
			t := ttab[n.aux : n.aux+8 : n.aux+8]
			a := int(fan[s]) * W
			b := int(fan[s+1]) * W
			c := int(fan[s+2]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab3(t, v[a+w], v[b+w], v[c+w])
			}
		case opTT4, opXor4, opChain4, opTree4, opSplit4:
			t := ttab[n.aux : n.aux+16 : n.aux+16]
			a := int(fan[s]) * W
			b := int(fan[s+1]) * W
			c := int(fan[s+2]) * W
			d := int(fan[s+3]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab4(t, v[a+w], v[b+w], v[c+w], v[d+w])
			}
		case opTT1:
			t := ttab[n.aux : n.aux+2 : n.aux+2]
			a := int(fan[s]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab1(t, v[a+w])
			}
		case opConst:
			cw := -uint64(n.tt & 1)
			for w := 0; w < W; w++ {
				v[o+w] = cw
			}
		default: // opCover
			cv := &m.covers[n.aux]
			b := buf[:n.nin]
			for w := 0; w < W; w++ {
				for j := int32(0); j < n.nin; j++ {
					b[j] = v[int(fan[s+j])*W+w]
				}
				v[o+w] = cv.EvalWords(b)
			}
		}
		if m.ovIdx != nil {
			if ov := m.ovIdx[n.out]; ov >= 0 {
				copy(v[o:o+W], m.ovVal[int(ov)*W:int(ov)*W+W])
			}
		}
		if m.mutOf != nil {
			if mi := m.mutOf[i]; mi >= 0 {
				for _, mut := range m.mutLists[mi] {
					w := o + int(mut.word)
					v[w] = m.applyNodeMut(v[w], &nodes[i], mut)
				}
			}
		}
		if m.patchOf != nil {
			if pi := m.patchOf[i]; pi >= 0 {
				for _, p := range m.patchLists[pi] {
					w := o + int(p.word)
					v[w] = m.applyNodePatch(v[w], &nodes[i], p)
				}
			}
		}
	}
}

// evalHookedSched is evalHookedRange over the node indices of sched, in
// order: cone.go evaluates a fanout cone this way. It is a copy rather
// than a schedule parameter of evalHookedRange because the indirection
// measurably slowed the whole-program pass: a fresh c880 repair
// campaign's dictionary build (a lane fault scan) took a median 55 ms
// with the shared loop against 46–47 ms with separate ones (9 runs
// each, 2-vCPU host).
func (m *Machine) evalHookedSched(sched []int32) {
	W := m.width
	v := m.val
	fan := m.fanin
	ttab := m.ttab
	nodes := m.nodes
	buf := m.buf
	for _, ni := range sched {
		i := int(ni)
		n := nodes[i]
		s := n.start
		o := int(n.out) * W
		switch n.op {
		case opTT2, opXor2, opChain2:
			t := ttab[n.aux : n.aux+4 : n.aux+4]
			a := int(fan[s]) * W
			b := int(fan[s+1]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab2(t, v[a+w], v[b+w])
			}
		case opTT3, opXor3, opChain3, opMux3, opMaj3:
			t := ttab[n.aux : n.aux+8 : n.aux+8]
			a := int(fan[s]) * W
			b := int(fan[s+1]) * W
			c := int(fan[s+2]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab3(t, v[a+w], v[b+w], v[c+w])
			}
		case opTT4, opXor4, opChain4, opTree4, opSplit4:
			t := ttab[n.aux : n.aux+16 : n.aux+16]
			a := int(fan[s]) * W
			b := int(fan[s+1]) * W
			c := int(fan[s+2]) * W
			d := int(fan[s+3]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab4(t, v[a+w], v[b+w], v[c+w], v[d+w])
			}
		case opTT1:
			t := ttab[n.aux : n.aux+2 : n.aux+2]
			a := int(fan[s]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab1(t, v[a+w])
			}
		case opConst:
			cw := -uint64(n.tt & 1)
			for w := 0; w < W; w++ {
				v[o+w] = cw
			}
		default: // opCover
			cv := &m.covers[n.aux]
			b := buf[:n.nin]
			for w := 0; w < W; w++ {
				for j := int32(0); j < n.nin; j++ {
					b[j] = v[int(fan[s+j])*W+w]
				}
				v[o+w] = cv.EvalWords(b)
			}
		}
		if m.ovIdx != nil {
			if ov := m.ovIdx[n.out]; ov >= 0 {
				copy(v[o:o+W], m.ovVal[int(ov)*W:int(ov)*W+W])
			}
		}
		if m.mutOf != nil {
			if mi := m.mutOf[i]; mi >= 0 {
				for _, mut := range m.mutLists[mi] {
					w := o + int(mut.word)
					v[w] = m.applyNodeMut(v[w], &nodes[i], mut)
				}
			}
		}
		if m.patchOf != nil {
			if pi := m.patchOf[i]; pi >= 0 {
				for _, p := range m.patchLists[pi] {
					w := o + int(p.word)
					v[w] = m.applyNodePatch(v[w], &nodes[i], p)
				}
			}
		}
	}
}

// evalPlainRangeB is the block specialization of the plain pass for any
// width divisible by four: each node pays its opcode dispatch and table
// slicing once, then streams the lane vector through the four-word block
// kernels in kernels4.go in W/4 calls. At W=4 the block loop collapses to
// a single kernel call per node; wider machines amortize the dispatch
// over more words.
func (m *Machine) evalPlainRangeB() {
	W := m.width
	v := m.val
	// Every block below is addressed as base + 8·(net·W + x) with
	// net < len(nl.Nets), x ≤ W-4 and len(val) = len(nl.Nets)·W, so all
	// four words of each vec4 are in bounds by construction; unsafe.Add
	// just spares the hot loop one bounds check and one slice-to-array
	// length check per operand per block.
	base := unsafe.Pointer(&v[0])
	fanB := m.fanB
	outB := m.outB
	nodes := m.nodes
	buf := m.buf
	for i := range nodes {
		n := nodes[i]
		s := n.start
		o := int(outB[i])
		switch n.op {
		case opTT2:
			a := int(fanB[s])
			b := int(fanB[s+1])
			for x := 0; x < W; x += 4 {
				evalTab2r(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opTT3:
			a := int(fanB[s])
			b := int(fanB[s+1])
			c := int(fanB[s+2])
			for x := 0; x < W; x += 4 {
				evalTab3r(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(c+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opTT4:
			a := int(fanB[s])
			b := int(fanB[s+1])
			c := int(fanB[s+2])
			d := int(fanB[s+3])
			for x := 0; x < W; x += 4 {
				evalTab4r(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(c+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(d+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opTT1:
			a := int(fanB[s])
			for x := 0; x < W; x += 4 {
				evalTab1r(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opXor2:
			a := int(fanB[s])
			b := int(fanB[s+1])
			for x := 0; x < W; x += 4 {
				evalXor2x4(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opXor3:
			a := int(fanB[s])
			b := int(fanB[s+1])
			c := int(fanB[s+2])
			for x := 0; x < W; x += 4 {
				evalXor3x4(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(c+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opXor4:
			a := int(fanB[s])
			b := int(fanB[s+1])
			c := int(fanB[s+2])
			d := int(fanB[s+3])
			for x := 0; x < W; x += 4 {
				evalXor4x4(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(c+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(d+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opChain2:
			p := &permTab[n.msk>>10]
			a := int(fanB[s+int32(p[0])])
			b := int(fanB[s+int32(p[1])])
			for x := 0; x < W; x += 4 {
				evalChain2x4(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opChain3:
			p := &permTab[n.msk>>10]
			a := int(fanB[s+int32(p[0])])
			b := int(fanB[s+int32(p[1])])
			c := int(fanB[s+int32(p[2])])
			for x := 0; x < W; x += 4 {
				evalChain3x4(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(c+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opChain4:
			p := &permTab[n.msk>>10]
			a := int(fanB[s+int32(p[0])])
			b := int(fanB[s+int32(p[1])])
			c := int(fanB[s+int32(p[2])])
			d := int(fanB[s+int32(p[3])])
			for x := 0; x < W; x += 4 {
				evalChain4x4(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(c+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(d+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opTree4:
			p := &permTab[n.msk>>10]
			a := int(fanB[s+int32(p[0])])
			b := int(fanB[s+int32(p[1])])
			c := int(fanB[s+int32(p[2])])
			d := int(fanB[s+int32(p[3])])
			for x := 0; x < W; x += 4 {
				evalTree4x4(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(c+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(d+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opMux3:
			p := &permTab[n.msk>>10]
			sn := int(fanB[s+int32(p[0])])
			a := int(fanB[s+int32(p[1])])
			b := int(fanB[s+int32(p[2])])
			for x := 0; x < W; x += 4 {
				evalMux3x4(n.msk, (*vec4)(unsafe.Add(base, uintptr(sn+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opMaj3:
			a := int(fanB[s])
			b := int(fanB[s+1])
			c := int(fanB[s+2])
			for x := 0; x < W; x += 4 {
				evalMaj3x4(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(c+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opSplit4:
			p := &permTab[n.msk>>10&31]
			a := int(fanB[s+int32(p[0])])
			b := int(fanB[s+int32(p[1])])
			c := int(fanB[s+int32(p[2])])
			d := int(fanB[s+int32(p[3])])
			for x := 0; x < W; x += 4 {
				evalSplit4x4(n.msk, (*vec4)(unsafe.Add(base, uintptr(a+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(b+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(c+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(d+x)<<3)), (*vec4)(unsafe.Add(base, uintptr(o+x)<<3)))
			}
		case opConst:
			cw := -uint64(n.tt & 1)
			for w := 0; w < W; w++ {
				v[o+w] = cw
			}
		default: // opCover
			cv := &m.covers[n.aux]
			b := buf[:n.nin]
			for w := 0; w < W; w++ {
				for j := int32(0); j < n.nin; j++ {
					b[j] = v[int(fanB[s+j])+w]
				}
				v[o+w] = cv.EvalWords(b)
			}
		}
	}
}

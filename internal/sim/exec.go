package sim

// Evaluation passes of the execution core. Every pass walks the level-major
// node schedule once; Eval picks one of two:
//
//   - evalPlainRange1: width 1 with no hook armed, one uint64 per net —
//     every golden replay, and the implementation replays of detection
//     and localization;
//   - evalHookedRange: the stride-W program plus the per-node override,
//     lane-fault and lane-patch hooks — the fault- and repair-parallel
//     pass, and every pass at W > 1. With no hook armed its three nil
//     checks are all it adds to a plain stride-W pass.
//
// evalHookedSched is the hooked pass over a subset of the schedule, the
// nodes of a fanout cone (cone.go); Eval never runs it.
//
// The opcode switch, table slicing and fanin index arithmetic are paid
// once per node, then the lane words stream through straight-line word
// arithmetic.

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
		case opTT2:
			v[n.out] = evalTab2(ttab[n.aux:n.aux+4:n.aux+4], v[fan[s]], v[fan[s+1]])
		case opTT3:
			v[n.out] = evalTab3(ttab[n.aux:n.aux+8:n.aux+8], v[fan[s]], v[fan[s+1]], v[fan[s+2]])
		case opTT4:
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
		case opTT2:
			t := ttab[n.aux : n.aux+4 : n.aux+4]
			a := int(fan[s]) * W
			b := int(fan[s+1]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab2(t, v[a+w], v[b+w])
			}
		case opTT3:
			t := ttab[n.aux : n.aux+8 : n.aux+8]
			a := int(fan[s]) * W
			b := int(fan[s+1]) * W
			c := int(fan[s+2]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab3(t, v[a+w], v[b+w], v[c+w])
			}
		case opTT4:
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
		case opTT2:
			t := ttab[n.aux : n.aux+4 : n.aux+4]
			a := int(fan[s]) * W
			b := int(fan[s+1]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab2(t, v[a+w], v[b+w])
			}
		case opTT3:
			t := ttab[n.aux : n.aux+8 : n.aux+8]
			a := int(fan[s]) * W
			b := int(fan[s+1]) * W
			c := int(fan[s+2]) * W
			for w := 0; w < W; w++ {
				v[o+w] = evalTab3(t, v[a+w], v[b+w], v[c+w])
			}
		case opTT4:
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

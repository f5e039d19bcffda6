package sim

// The ID-based batch API. Names are resolved to PISlot / column indices
// once, outside the loop; RunTrace then replays an entire clocked stimulus
// sequence with zero per-cycle allocations. This is the calling convention
// every hot path in the repository uses (detection, localization,
// equivalence checking, fault campaigns, the benchmarks).

import (
	"fmt"

	"fpgadbg/internal/netlist"
)

// PISlot identifies one primary input of a compiled Machine: an index into
// PIOrder. Slots are resolved from names once and reused for every trace.
type PISlot int32

// PIOrder returns the machine's primary inputs in slot order (sorted by
// name at compile time). Slot i drives PIOrder()[i].
func (m *Machine) PIOrder() []string { return m.piNames }

// PONames returns the primary output names in Trace column order.
func (m *Machine) PONames() []string { return m.poNames }

// Slot resolves a primary input name to its slot.
func (m *Machine) Slot(name string) (PISlot, error) {
	for i, n := range m.piNames {
		if n == name {
			return PISlot(i), nil
		}
	}
	return -1, fmt.Errorf("sim: no primary input %q", name)
}

// Slots resolves several primary input names at once.
func (m *Machine) Slots(names []string) ([]PISlot, error) {
	out := make([]PISlot, len(names))
	for i, n := range names {
		s, err := m.Slot(n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// Bind fixes the stimulus column order for RunTrace: column j of every
// stimulus row drives the primary input of slots[j]. Primary inputs not
// bound (and not overridden) are held at zero — the convention used for
// implementation-only control inputs. Compile binds all PIs in PIOrder by
// default.
func (m *Machine) Bind(slots []PISlot) error {
	bound := make([]int32, len(slots))
	for j, s := range slots {
		if int(s) < 0 || int(s) >= len(m.pis) {
			return fmt.Errorf("sim: bind of invalid slot %d", s)
		}
		bound[j] = m.pis[s]
	}
	m.bound = bound
	return nil
}

// BindNames is Bind for a list of primary input names.
func (m *Machine) BindNames(names []string) error {
	slots, err := m.Slots(names)
	if err != nil {
		return err
	}
	return m.Bind(slots)
}

// Probe configures the set of nets sampled into Trace.ProbeVals each cycle
// — the software analogue of attached observation logic. It replaces any
// previous probe set.
func (m *Machine) Probe(nets ...netlist.NetID) error {
	probes := make([]int32, len(nets))
	for i, id := range nets {
		if int(id) < 0 || int(id) >= len(m.nl.Nets) {
			return fmt.Errorf("sim: probe of invalid net %d", id)
		}
		probes[i] = int32(id)
	}
	m.probes = probes
	return nil
}

// ClearProbes removes every probe.
func (m *Machine) ClearProbes() { m.probes = nil }

// CaptureState toggles recording of the flip-flop state stream into
// Trace.States (one word per DFF per cycle, sampled after the clock edge,
// matching StateWords after Eval and Clock).
// Differential oracle hook: only tests record state, to hold a trace
// against the reference interpreter and narrow machines
// (TestWideIdentityOnCatalog).
func (m *Machine) CaptureState(on bool) { m.captureState = on }

// POCols resolves primary output names to Trace column indices.
func (m *Machine) POCols(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, name := range names {
		col := -1
		for j, n := range m.poNames {
			if n == name {
				col = j
				break
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("sim: no primary output %q", name)
		}
		out[i] = col
	}
	return out, nil
}

// Trace is the recorded result of one RunTrace: per cycle, every primary
// output lane vector, every probed net lane vector and (optionally) the
// flip-flop state. All streams are stored row-major in flat slices so a
// Trace can be reused across runs without reallocation. On a widened
// machine every recorded quantity is Width words; the word-indexed
// accessors (OutW and friends) address individual lane words, while the
// classic accessors return lane word 0 — on width-1 machines the two
// coincide and the layout is exactly the pre-vector one.
type Trace struct {
	Cycles    int
	NumPOs    int
	NumProbes int
	NumState  int
	Width     int // lane-vector words per recorded value (machine Width)
	// Outs[(c*NumPOs+i)*Width+w] is lane word w of PO column i (machine
	// PONames order) at cycle c, sampled after Eval and before the edge.
	Outs []uint64
	// ProbeVals[(c*NumProbes+i)*Width+w] is probed net i at cycle c.
	ProbeVals []uint64
	// States[(c*NumState+i)*Width+w] is DFF i after cycle c's clock edge.
	States []uint64
}

// Out returns lane word 0 of PO column po at the given cycle.
func (t *Trace) Out(cycle, po int) uint64 { return t.Outs[(cycle*t.NumPOs+po)*t.Width] }

// OutW returns lane word w of PO column po at the given cycle.
func (t *Trace) OutW(cycle, po, w int) uint64 { return t.Outs[(cycle*t.NumPOs+po)*t.Width+w] }

// ProbeVal returns lane word 0 of probed net p at the given cycle.
func (t *Trace) ProbeVal(cycle, p int) uint64 { return t.ProbeVals[(cycle*t.NumProbes+p)*t.Width] }

// State returns lane word 0 of DFF i's post-edge state at the given cycle.
// Differential oracle read-out (TestStateCaptureMatchesStateWords).
func (t *Trace) State(cycle, i int) uint64 { return t.States[(cycle*t.NumState+i)*t.Width] }

// StateW returns lane word w of DFF i's post-edge state.
// Differential oracle read-out (TestWideIdentityOnCatalog).
func (t *Trace) StateW(cycle, i, w int) uint64 { return t.States[(cycle*t.NumState+i)*t.Width+w] }

// grow returns s with length n, reusing capacity when possible.
func grow(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n)
}

// RunTrace resets the machine and replays the whole clocked stimulus
// sequence: for each cycle, the row drives the bound inputs (see Bind),
// the logic is evaluated, primary outputs and probed nets are recorded,
// and the clock advances.
//
// Row layout: a row of at most len(bound) words is "narrow" —
// stimulus[c][j] drives the j-th bound input, broadcast across all lane
// words of a widened machine, and rows shorter than the binding leave
// the remaining bound inputs at zero. A longer row is "wide": column j's
// Width words are row[j*Width:(j+1)*Width] (missing tail words zero).
// On width-1 machines the two layouts coincide with the classic
// semantics. Narrow-row broadcast is what lets pattern sources and
// serial oracles built for the 64-lane model drive widened machines
// unchanged — exactly the stimulus shape fault- and repair-parallel
// campaigns need, where every lane must see the same patterns.
func (m *Machine) RunTrace(stimulus [][]uint64) *Trace {
	return m.RunTraceInto(new(Trace), stimulus)
}

// RunTraceInto is RunTrace reusing the given Trace's buffers; in steady
// state the replay loop performs zero allocations.
func (m *Machine) RunTraceInto(tr *Trace, stimulus [][]uint64) *Trace {
	m.Reset()
	return m.ResumeTraceInto(tr, stimulus)
}

// ResumeTraceInto is RunTraceInto without the leading reset: the replay
// continues from the machine's current flip-flop state. Callers use it to
// trace a long sequence in windows — scanning each window before paying
// for the next — while keeping cycle semantics identical to one long
// RunTrace.
//
// Quiescent steps are not re-evaluated. Step c reuses step c−1's value
// plane when its raw stimulus row equals row c−1 of the same call, the
// clock edge after step c−1 changed no state word, and no armed lane
// fault has a finite arming window; everything is still recorded and the
// cycle counter still advances. Rows, not loaded input words, are
// compared: a perturbed source net (a stuck PI, a source-net bridge) is
// already final in the plane, and reloading and perturbing it again could
// change it. The first step of every call is evaluated, so nothing
// configured between calls needs to invalidate the reuse.
func (m *Machine) ResumeTraceInto(tr *Trace, stimulus [][]uint64) *Trace {
	W := m.width
	tr.Cycles = len(stimulus)
	tr.NumPOs = len(m.pos)
	tr.NumProbes = len(m.probes)
	tr.Width = W
	tr.Outs = grow(tr.Outs, tr.Cycles*tr.NumPOs*W)
	tr.ProbeVals = grow(tr.ProbeVals, tr.Cycles*tr.NumProbes*W)
	if m.captureState {
		tr.NumState = len(m.dffQ)
		tr.States = grow(tr.States, tr.Cycles*tr.NumState*W)
	} else {
		tr.NumState = 0
		tr.States = tr.States[:0]
	}
	if W == 1 {
		m.resumeTrace1(tr, stimulus)
		return tr
	}
	B := len(m.bound)
	quiet := !m.windowed
	settled := false
	var prev []uint64
	for c, row := range stimulus {
		if m.stateBits != nil {
			m.noteStateBits(c)
		}
		// A quiescent step reuses the value plane as it stands.
		if !settled || !sameRow(row, prev) {
			if len(row) > B {
				// Wide layout: column j's words at row[j*W:(j+1)*W].
				for j := 0; j < B; j++ {
					o := int(m.bound[j]) * W
					for w := 0; w < W; w++ {
						var x uint64
						if j*W+w < len(row) {
							x = row[j*W+w]
						}
						m.val[o+w] = x
					}
				}
			} else {
				// Narrow layout: broadcast each word across the lane vector.
				for j := 0; j < B; j++ {
					var x uint64
					if j < len(row) {
						x = row[j]
					}
					o := int(m.bound[j]) * W
					for w := 0; w < W; w++ {
						m.val[o+w] = x
					}
				}
			}
			m.Eval()
		}
		prev = row
		o := c * tr.NumPOs * W
		for i, po := range m.pos {
			copy(tr.Outs[o+i*W:o+(i+1)*W], m.val[int(po)*W:int(po)*W+W])
		}
		p := c * tr.NumProbes * W
		for i, pr := range m.probes {
			copy(tr.ProbeVals[p+i*W:p+(i+1)*W], m.val[int(pr)*W:int(pr)*W+W])
		}
		settled = m.clock() == 0 && quiet
		if m.captureState {
			copy(tr.States[c*tr.NumState*W:(c+1)*tr.NumState*W], m.state)
		}
	}
	return tr
}

// resumeTrace1 is the width-1 replay loop, kept scalar so the classic
// 64-lane path pays nothing for the vector generalization.
func (m *Machine) resumeTrace1(tr *Trace, stimulus [][]uint64) {
	quiet := !m.windowed
	settled := false
	var prev []uint64
	for c, row := range stimulus {
		if m.stateBits != nil {
			m.noteStateBits(c)
		}
		// A quiescent step reuses the value plane as it stands.
		if !settled || !sameRow(row, prev) {
			k := len(row)
			if k > len(m.bound) {
				k = len(m.bound)
			}
			for j := 0; j < k; j++ {
				m.val[m.bound[j]] = row[j]
			}
			for j := k; j < len(m.bound); j++ {
				m.val[m.bound[j]] = 0
			}
			m.Eval()
		}
		prev = row
		o := c * tr.NumPOs
		for i, po := range m.pos {
			tr.Outs[o+i] = m.val[po]
		}
		p := c * tr.NumProbes
		for i, pr := range m.probes {
			tr.ProbeVals[p+i] = m.val[pr]
		}
		settled = m.clock() == 0 && quiet
		if m.captureState {
			copy(tr.States[c*tr.NumState:(c+1)*tr.NumState], m.state)
		}
	}
}

// sameRow reports whether two raw stimulus rows drive identical inputs.
// testgen.Repeat aliases held rows, so the pointer test usually decides.
func sameRow(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i, x := range a {
		if b[i] != x {
			return false
		}
	}
	return true
}

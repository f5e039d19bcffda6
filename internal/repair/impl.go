package repair

// The implementation memo. Outside a candidate's fanout cone every lane
// carries the unrepaired implementation's value, and under broadcast
// stimulus that value is one bit per step. The engine records those bits
// once per (implementation, stimulus) — the primary outputs for the
// excitation check, the cone boundaries for cone-restricted validation
// (validateCone) — and shares them through the implementation oracle like
// the golden streams. Unlike a golden entry, an implementation entry
// grows by prefix: the excitation check stops at the first divergent
// window, so an entry may cover only the steps some replay needed, and it
// keeps the scalar machine state at its frontier so a later reader can
// extend it window by window instead of replaying from reset.

import (
	"fmt"
	"slices"

	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
)

// SetImplOracle makes the engine memoize the unrepaired implementation's
// replays in o, shared with other engines on the same implementation
// netlist (Oracle.ForImplementation), instead of the private oracle
// NewEngine gives it.
func (e *Engine) SetImplOracle(o *Oracle) { e.implOracle = o }

// scalarImpl returns the engine's width-1 fork of the implementation
// program, configured like every implementation replay (golden input
// order, implementation-only inputs pinned to zero), built on first use.
func (e *Engine) scalarImpl() (*sim.Machine, error) {
	if e.scalar == nil {
		m, err := e.impl.ForkWidth(1)
		if err != nil {
			return nil, err
		}
		if err := e.configureImpl(m); err != nil {
			return nil, err
		}
		e.scalar = m
	}
	return e.scalar, nil
}

// configureImpl binds an implementation machine to the golden input order
// and pins the implementation-only inputs to zero.
func (e *Engine) configureImpl(m *sim.Machine) error {
	if err := m.BindNames(e.piNames); err != nil {
		return fmt.Errorf("repair: impl: %w", err)
	}
	for _, id := range e.implOnlyPIs {
		if err := m.SetOverride(id, 0); err != nil {
			return fmt.Errorf("repair: impl: %w", err)
		}
	}
	return nil
}

// implEntry returns the implementation memo entry of st.
func (e *Engine) implEntry(st *stimulus) *Streams {
	nl := e.impl.Netlist()
	ent := e.implOracle.store.OracleEntry(e.implOracle.prefix+st.id, func() (*Streams, int64) {
		// Charged at its worst case: every net recorded, plus the state.
		return newStreams(), int64(len(nl.Nets)*((st.steps+63)/64)+len(nl.Cells))*8 + 64
	})
	if ent == nil {
		ent = newStreams() // nothing kept: record into a private entry
	}
	return ent
}

// implStreams returns the unrepaired implementation's packed streams of
// the named nets in ent, the memo entry of st, one per name, valid below
// the entry's frontier; callers extend it with extendImpl. Nets the entry
// lacks are recorded over the current prefix in one replay from reset,
// and replayed reports that it ran. A returned stream is never replaced.
func (e *Engine) implStreams(ent *Streams, st *stimulus, names []string) (cols [][]uint64, replayed bool, err error) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	var missing []string
	for _, n := range names {
		if ent.cols[n] == nil && !slices.Contains(missing, n) {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		words := (st.steps + 63) / 64
		fresh := make([][]uint64, len(missing))
		for k := range fresh {
			fresh[k] = make([]uint64, words)
		}
		if ent.steps > 0 {
			m, err := e.scalarImpl()
			if err != nil {
				return nil, false, err
			}
			if err := e.probeImpl(m, missing); err != nil {
				return nil, false, err
			}
			tr := m.RunTraceInto(&e.str, st.Rows()[:ent.steps])
			m.ClearProbes()
			for k := range missing {
				packProbe(tr, k, 0, ent.steps, fresh[k])
			}
			replayed = true
		}
		for k, n := range missing {
			ent.cols[n] = fresh[k]
		}
	}
	cols = make([][]uint64, len(names))
	for i, n := range names {
		cols[i] = ent.cols[n]
	}
	return cols, replayed, nil
}

// extendImpl makes ent, the memo entry of st, valid for at least steps
// [0, upto) (clamped to the stimulus): a frontier short of it is extended
// from the saved scalar state, recording every net the entry holds.
// Callers pass window ends, so frontiers stay on 64-step word boundaries
// and an extension writes only words no reader below the old frontier
// looks at. It reports whether a replay ran.
func (e *Engine) extendImpl(ent *Streams, st *stimulus, upto int) (bool, error) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	upto = min(upto, st.steps)
	if ent.steps >= upto {
		return false, nil
	}
	m, err := e.scalarImpl()
	if err != nil {
		return false, err
	}
	all := make([]string, 0, len(ent.cols))
	for n := range ent.cols {
		all = append(all, n)
	}
	if err := e.probeImpl(m, all); err != nil {
		return false, err
	}
	m.Reset()
	if ent.steps > 0 {
		if err := m.SetStateWords(ent.state); err != nil {
			return false, err
		}
	}
	tr := m.ResumeTraceInto(&e.str, st.Rows()[ent.steps:upto])
	m.ClearProbes()
	for k, n := range all {
		packProbe(tr, k, ent.steps, upto-ent.steps, ent.cols[n])
	}
	ent.steps, ent.state = upto, m.StateWords()
	return true, nil
}

// probeImpl probes the named implementation nets on m.
func (e *Engine) probeImpl(m *sim.Machine, names []string) error {
	nl := m.Netlist()
	ids := make([]netlist.NetID, len(names))
	for i, n := range names {
		id, ok := nl.NetByName(n)
		if !ok {
			return fmt.Errorf("repair: implementation has no net %q", n)
		}
		ids[i] = id
	}
	return m.Probe(ids...)
}

// windowMask selects the low n ≤ 64 bits of a stream word.
func windowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// excited reports whether the unrepaired implementation's primary
// outputs diverge from the golden streams gt anywhere in st. It reads
// them from the implementation memo a replay window at a time, so a warm
// entry answers without a replay and a cold one replays up to the first
// divergent window, as the early exit always has; extra nets are recorded
// alongside for the validation passes that follow. It counts one
// implementation-oracle hit or miss.
func (e *Engine) excited(st *stimulus, gt [][]uint64, extra []string) (bool, error) {
	names := append(append([]string{}, e.poNames...), extra...)
	ent := e.implEntry(st)
	cols, replayed, err := e.implStreams(ent, st, names)
	if err != nil {
		return false, err
	}
	hit := !replayed
	defer func() { e.countImpl(hit) }()
	for lo := 0; lo < st.steps; lo += replayWindow {
		hi := min(lo+replayWindow, st.steps)
		replayed, err := e.extendImpl(ent, st, hi)
		if err != nil {
			return false, err
		}
		hit = hit && !replayed
		w, mask := lo>>6, windowMask(hi-lo)
		for po := range e.poNames {
			if (cols[po][w]^gt[po][w])&mask != 0 {
				return true, nil
			}
		}
	}
	return false, nil
}

// countImpl counts one implementation-oracle lookup.
func (e *Engine) countImpl(hit bool) {
	if hit {
		e.implHits++
	} else {
		e.implMisses++
	}
}

// suspectBoundary returns the boundary net names of the suspects' joint
// fanout cone when validation will replay cones of them (the cone is at
// most maxConeShare of the program), so the excitation check records them
// in the same replay; nil otherwise. A batch's cone lies inside the joint
// cone, and the few boundary nets a smaller cone adds are recorded when a
// batch first asks for them.
func (e *Engine) suspectBoundary(suspects []string) ([]string, error) {
	nl := e.impl.Netlist()
	var cells []netlist.CellID
	for _, s := range e.sites(suspects) {
		cells = append(cells, s.id)
	}
	if len(cells) == 0 {
		return nil, nil
	}
	cone, err := e.impl.Cone(cells)
	if err != nil || cone.Share() > maxConeShare {
		return nil, err
	}
	var names []string
	for _, id := range cone.Boundary() {
		names = append(names, nl.NetName(id))
	}
	return names, nil
}

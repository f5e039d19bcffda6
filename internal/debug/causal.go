package debug

import (
	"fmt"
	"sort"

	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
)

// causalRank implements the causal-chain localizer: one replay of the
// failing stimulus with every suspect output observed, then a backward
// walk from the first mismatching (output, cycle) through the recorded
// divergence along fanin cones — combinational fanin in the same cycle,
// register fanin in the previous cycle. The result maps each reached
// suspect cell to its causal distance (BFS depth) from the failure's
// first observable symptom.
//
// The ranking is sound for ordering, not pruning: the faulty cell's
// output diverges even when its inputs match, so the true site is
// always on a divergent chain, but a suspect missing from the map (its
// output never diverged, or its name is implementation-only) is merely
// unranked — pickProbes keeps it, after the ranked ones.
//
// The clean set IS sound for pruning. The replay observes every
// suspect's output over the whole failing stimulus; a suspect whose
// stream never diverges from golden cannot be the single error site:
// were it the site, every other cell computes correctly and its own
// output — including any feedback through state — matches golden on
// every cycle, so every net in the machine would match and no output
// could have failed. When the stimulus no longer fails (firstCycle
// lost to an intervening repair), both maps come back empty and
// nothing is pruned.
func (s *Session) causalRank(det *Detection, suspects map[string]bool) (rank map[string]int, clean map[string]bool, err error) {
	if err := s.interrupted(); err != nil {
		return nil, nil, err
	}
	sp := s.Obs.Start(obs.StageLocalizeCausal)
	defer sp.End()
	nl := s.Layout.NL
	mg, err := s.goldenMachine()
	if err != nil {
		return nil, nil, err
	}
	mi, err := s.implMachine()
	if err != nil {
		return nil, nil, err
	}
	if err := mg.BindNames(s.Golden.SortedPINames()); err != nil {
		return nil, nil, fmt.Errorf("debug: golden: %w", err)
	}

	// Observe every net a divergence decision needs: each suspect's
	// output plus the failing outputs themselves — restricted to names
	// both designs share (an implementation-only net has no golden
	// stream to diverge from).
	watch := make(map[string]bool, len(suspects)+len(det.FailingOutputs))
	for name := range suspects {
		if id, ok := nl.CellByName(name); ok {
			watch[nl.NetName(nl.Cells[id].Out)] = true
		}
	}
	for _, name := range det.FailingOutputs {
		watch[name] = true
	}
	names := make([]string, 0, len(watch))
	for name := range watch {
		names = append(names, name)
	}
	sort.Strings(names)
	colOf := make(map[string]int, len(names))
	var gProbes, iProbes []netlist.NetID
	for _, name := range names {
		gid, gok := s.Golden.NetByName(name)
		iid, iok := nl.NetByName(name)
		if gok && iok {
			colOf[name] = len(gProbes)
			gProbes = append(gProbes, gid)
			iProbes = append(iProbes, iid)
		}
	}
	if err := mg.Probe(gProbes...); err != nil {
		return nil, nil, err
	}
	defer mg.ClearProbes()
	if err := mi.Probe(iProbes...); err != nil {
		return nil, nil, err
	}
	poNames := s.Golden.SortedPONames()
	gCols, err := mg.POCols(poNames)
	if err != nil {
		return nil, nil, fmt.Errorf("debug: golden: %w", err)
	}
	iCols, err := mi.POCols(poNames)
	if err != nil {
		return nil, nil, fmt.Errorf("debug: impl: %w", err)
	}
	seq := det.Stimulus
	tg := mg.RunTrace(seq)
	ti := mi.RunTrace(seq)

	// First mismatching cycle and output — the failure's earliest
	// observable symptom.
	firstCycle, firstPO := -1, ""
	for c := 0; c < len(seq) && firstCycle < 0; c++ {
		for i, name := range poNames {
			if tg.Out(c, gCols[i]) != ti.Out(c, iCols[i]) {
				firstCycle, firstPO = c, name
				break
			}
		}
	}
	if firstCycle < 0 {
		// The recorded stimulus no longer fails (e.g. an intervening
		// repair); nothing to rank, nothing to exonerate.
		return map[string]int{}, map[string]bool{}, nil
	}
	diverged := func(name string, cycle int) bool {
		col, ok := colOf[name]
		if !ok || cycle < 0 || cycle >= len(seq) {
			return false
		}
		return tg.ProbeVal(cycle, col) != ti.ProbeVal(cycle, col)
	}

	// Backward BFS over (cell, cycle) states, walking only through
	// divergent fanin nets.
	type state struct {
		cell  netlist.CellID
		cycle int
	}
	rank = make(map[string]int)
	seen := make(map[state]bool)
	var queue []state
	depth := make(map[state]int)
	push := func(st state, d int) {
		if st.cycle < 0 || seen[st] {
			return
		}
		seen[st] = true
		depth[st] = d
		queue = append(queue, st)
		name := nl.CellName(st.cell)
		if cur, ok := rank[name]; !ok || d < cur {
			rank[name] = d
		}
	}
	if poID, ok := nl.NetByName(firstPO); ok {
		if d := nl.Nets[poID].Driver; d != netlist.NilCell && !nl.Cells[d].Dead {
			push(state{cell: d, cycle: firstCycle}, 0)
		}
	}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		c := &nl.Cells[st.cell]
		for _, f := range c.Fanin {
			cy := st.cycle
			if c.Kind == netlist.KindDFF {
				cy-- // register fanin was sampled the cycle before
			}
			d := nl.Nets[f].Driver
			if d == netlist.NilCell || nl.Cells[d].Dead {
				continue
			}
			if !diverged(nl.NetName(f), cy) {
				continue
			}
			push(state{cell: d, cycle: cy}, depth[st]+1)
		}
	}
	// Exoneration: a suspect observed on every cycle of the failing
	// stimulus without a single divergence cannot be the site.
	clean = make(map[string]bool)
	for name := range suspects {
		id, ok := nl.CellByName(name)
		if !ok {
			continue
		}
		col, ok := colOf[nl.NetName(nl.Cells[id].Out)]
		if !ok {
			continue // implementation-only output: no golden stream, keep
		}
		matched := true
		for c := 0; c < len(seq); c++ {
			if tg.ProbeVal(c, col) != ti.ProbeVal(c, col) {
				matched = false
				break
			}
		}
		if matched {
			clean[name] = true
		}
	}
	sp.Add("causal-ranked", int64(len(rank)))
	sp.Add("causal-exonerated", int64(len(clean)))
	sp.Add("mismatch-cycle", int64(firstCycle))
	s.emit("localize", 0, "causal walk from cycle %d (%s): %d cells ranked, %d exonerated", firstCycle, firstPO, len(rank), len(clean))
	return rank, clean, nil
}

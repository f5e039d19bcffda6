package repair

import (
	"fmt"
	"math/bits"
	"sort"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
)

// Kind enumerates the candidate-correction shapes.
type Kind uint8

const (
	// BitFlip complements one truth-table entry of a suspect LUT.
	BitFlip Kind = iota
	// PinSwap exchanges two fanin pins of a suspect LUT — a wiring
	// repair, validated and committed as the equivalent permuted truth
	// table.
	PinSwap
	// Resynth replaces the whole truth table with one rebuilt from the
	// cell's observed I/O behaviour.
	Resynth
	// Rewire re-drives one fanin pin from a different net — the
	// interconnect repair for route and bridging faults, where the logic
	// is healthy and the wiring is wrong. Unlike the other kinds it is not
	// a truth-table substitution over the cell's existing fanins, so it is
	// validated serially (clone + apply + recompile) rather than as a lane
	// patch; Apply realizes it through the journaled SetFanin, so an open
	// layout transaction can revert it like any other repair.
	Rewire
)

func (k Kind) String() string {
	switch k {
	case BitFlip:
		return "bit-flip"
	case PinSwap:
		return "pin-swap"
	case Resynth:
		return "resynth"
	case Rewire:
		return "rewire"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Candidate is one proposed correction of one implementation cell.
// BitFlip, PinSwap and Resynth are a truth-table substitution over the
// cell's existing fanins: that is how they are validated on simulator
// lanes and how Apply commits them.
type Candidate struct {
	// Cell names the implementation cell the candidate repairs.
	Cell string
	Kind Kind
	// Bit is the complemented minterm (BitFlip).
	Bit uint32
	// PinA and PinB are the exchanged fanin pins (PinSwap); Rewire
	// re-drives pin PinA alone.
	PinA, PinB int
	// NewNet names the net pin PinA is rerouted to (Rewire).
	NewNet string
	// TT is the replacement truth table over the cell's k fanins (low
	// 2^k bits) — the lane-patch form of the candidate.
	TT uint16
	// Flips counts truth-table entries the candidate changes; the
	// primary minimality rank key.
	Flips int
}

// Describe renders the candidate for events and logs.
func (c Candidate) Describe() string {
	switch c.Kind {
	case BitFlip:
		return fmt.Sprintf("%s: flip minterm %d of %s", c.Kind, c.Bit, c.Cell)
	case PinSwap:
		return fmt.Sprintf("%s: swap pins %d,%d of %s", c.Kind, c.PinA, c.PinB, c.Cell)
	case Resynth:
		return fmt.Sprintf("%s: rewrite %s to tt %04x (%d bits)", c.Kind, c.Cell, c.TT, c.Flips)
	case Rewire:
		return fmt.Sprintf("%s: re-drive pin %d of %s from %s", c.Kind, c.PinA, c.Cell, c.NewNet)
	default:
		return fmt.Sprintf("%s at %s", c.Kind, c.Cell)
	}
}

// Apply realizes the candidate on a live netlist: BitFlip, PinSwap and
// Resynth write TT, the truth table the lanes validated, leaving the
// fanins alone (a pin swap becomes the permuted table, so no wire
// changes); Rewire re-drives one fanin pin. Both go through the netlist's
// journaled mutators, so an open layout transaction can revert the
// repair. It returns the modified cell for core.Delta.Modified.
func (c Candidate) Apply(nl *netlist.Netlist) (netlist.CellID, error) {
	id, ok := nl.CellByName(c.Cell)
	if !ok {
		return netlist.NilCell, fmt.Errorf("repair: cell %q vanished from the implementation", c.Cell)
	}
	cell := &nl.Cells[id]
	if cell.Kind != netlist.KindLUT {
		return netlist.NilCell, fmt.Errorf("repair: cell %q is not a LUT", c.Cell)
	}
	if c.Kind == Rewire {
		src, ok := nl.NetByName(c.NewNet)
		if !ok {
			return netlist.NilCell, fmt.Errorf("repair: rewire source net %q vanished from the implementation", c.NewNet)
		}
		if err := nl.SetFanin(id, c.PinA, src); err != nil {
			return netlist.NilCell, fmt.Errorf("repair: %w", err)
		}
		return id, nil
	}
	k := len(cell.Fanin)
	tt := logic.NewTT(k)
	for m := uint64(0); m < 1<<uint(k); m++ {
		tt.SetBit(m, c.TT&(1<<m) != 0)
	}
	if err := nl.SetFunc(id, tt.ToCover()); err != nil {
		return netlist.NilCell, fmt.Errorf("repair: %w", err)
	}
	return id, nil
}

// Engine searches candidate corrections for one (golden, implementation)
// pair. It holds private machine forks bound to the golden primary-input
// order — implementation-only inputs are pinned to zero, matching the
// debug layer's comparison convention — and never mutates either design.
type Engine struct {
	golden *sim.Machine // oracle fork
	impl   *sim.Machine // candidate program fork, lanes patched per batch
	// scalar is a width-1 fork of the implementation program replaying
	// the unrepaired design into the implementation memo (impl.go).
	scalar *sim.Machine

	piNames []string // golden sorted PI names = stimulus column order
	poNames []string // golden trace column order
	iCols   []int    // implementation trace columns of poNames
	// implOnlyPIs are pinned to zero on every implementation fork.
	implOnlyPIs []netlist.NetID

	tr  sim.Trace // batch replay buffer, reused across batches
	str sim.Trace // scalar memo replay buffer

	// oracle serves every golden replay and derived stimulus; gtr is its
	// miss-replay buffer. implOracle memoizes the unrepaired
	// implementation's replays. The counters count stream lookups for
	// span attrs.
	oracle                   *Oracle
	implOracle               *Oracle
	gtr                      sim.Trace
	oracleHits, oracleMisses int64
	implHits, implMisses     int64
}

// NewEngine pairs a golden oracle machine with the implementation's
// compiled candidate program. Both machines are forked, so callers may
// keep using (or cache) the originals; the implementation machine's
// netlist must name-match the layout netlist candidates will be applied
// to.
func NewEngine(golden, impl *sim.Machine) (*Engine, error) {
	o := NewOracle(nil, "")
	e := &Engine{golden: golden.Fork(), impl: impl.Fork(), oracle: o, implOracle: o.ForImplementation("")}
	goldenNL := golden.Netlist()
	e.piNames = goldenNL.SortedPINames()
	if err := e.golden.BindNames(e.piNames); err != nil {
		return nil, fmt.Errorf("repair: golden: %w", err)
	}
	goldenPI := make(map[string]bool, len(e.piNames))
	for _, n := range e.piNames {
		goldenPI[n] = true
	}
	implNL := impl.Netlist()
	for _, n := range implNL.SortedPINames() {
		if goldenPI[n] {
			continue
		}
		if id, ok := implNL.NetByName(n); ok {
			e.implOnlyPIs = append(e.implOnlyPIs, id)
		}
	}
	if err := e.configureImpl(e.impl); err != nil {
		return nil, err
	}
	e.poNames = e.golden.PONames()
	iCols, err := e.impl.POCols(e.poNames)
	if err != nil {
		return nil, fmt.Errorf("repair: impl: %w", err)
	}
	e.iCols = iCols
	return e, nil
}

// SetOracle makes the engine read its golden replays from o, shared with
// other engines on the same golden design, instead of the private oracle
// NewEngine gives it.
func (e *Engine) SetOracle(o *Oracle) { e.oracle = o }

// NumPIs returns the stimulus column count (golden primary inputs).
func (e *Engine) NumPIs() int { return len(e.piNames) }

// ttWord returns the low 2^k-bit truth-table word of a ≤4-input LUT
// function.
func ttWord(f logic.Cover) (uint16, int, bool) {
	k := f.N
	if k > 4 {
		return 0, 0, false
	}
	tt, err := f.TT()
	if err != nil {
		return 0, 0, false
	}
	w4, err := tt.Word4()
	if err != nil {
		return 0, 0, false
	}
	if k < 4 {
		w4 &= 1<<(1<<uint(k)) - 1
	}
	return w4, k, true
}

// permuteTT exchanges variables a and b of a k-input truth-table word.
func permuteTT(tt uint16, k, a, b int) uint16 {
	var out uint16
	for m := 0; m < 1<<uint(k); m++ {
		if tt&(1<<uint(m)) == 0 {
			continue
		}
		ba := m >> uint(a) & 1
		bb := m >> uint(b) & 1
		s := m
		if ba != bb {
			s = m ^ (1 << uint(a)) ^ (1 << uint(b))
		}
		out |= 1 << uint(s)
	}
	return out
}

// Enumerate builds the candidate-correction list for a suspect set:
// every single truth-table-bit flip, every distinguishable pin swap, and
// — when obsStim is non-empty — one truth table resynthesized from the
// cell's I/O behaviour observed under obsStim (implementation fanins,
// golden same-named output stream; unobserved minterms keep their
// current value). Suspects that are not ≤4-input LUTs in the
// implementation are skipped; candidates equal to the current function
// are dropped, and candidates of one cell are deduplicated by resulting
// table (first kind wins, in BitFlip < PinSwap < Resynth order). The
// result is deterministic: suspects are processed in sorted order.
// Only tests call this raw-stimulus entry: it feeds the differential oracle
// pair Validate/SerialValidate (TestValidateMatchesSerial*).
func (e *Engine) Enumerate(suspects []string, obsStim [][]uint64) ([]Candidate, error) {
	st, err := e.named(obsStim)
	if err != nil {
		return nil, err
	}
	return e.enumerate(suspects, st)
}

// sites returns the enumerable suspects in sorted order: live LUTs of at
// most four inputs in the implementation.
func (e *Engine) sites(suspects []string) []site {
	names := append([]string(nil), suspects...)
	sort.Strings(names)
	nl := e.impl.Netlist()
	var sites []site
	for _, name := range names {
		id, ok := nl.CellByName(name)
		if !ok {
			continue
		}
		c := &nl.Cells[id]
		if c.Dead || c.Kind != netlist.KindLUT {
			continue
		}
		cur, k, ok := ttWord(c.Func)
		if !ok {
			continue
		}
		sites = append(sites, site{name: name, id: id, cur: cur, k: k})
	}
	return sites
}

// enumerate is Enumerate with the observation stimulus named.
func (e *Engine) enumerate(suspects []string, obs *stimulus) ([]Candidate, error) {
	sites := e.sites(suspects)
	resynth := map[string]uint16{}
	if obs.steps > 0 && len(sites) > 0 {
		var err error
		resynth, err = e.observeTables(sites, obs)
		if err != nil {
			return nil, err
		}
	}

	var out []Candidate
	for _, s := range sites {
		seen := map[uint16]bool{s.cur: true}
		add := func(c Candidate) {
			if seen[c.TT] {
				return
			}
			seen[c.TT] = true
			c.Cell = s.name
			c.Flips = bits.OnesCount16(c.TT ^ s.cur)
			out = append(out, c)
		}
		for bit := uint32(0); bit < 1<<uint(s.k); bit++ {
			add(Candidate{Kind: BitFlip, Bit: bit, TT: s.cur ^ 1<<bit})
		}
		for a := 0; a < s.k; a++ {
			for b := a + 1; b < s.k; b++ {
				add(Candidate{Kind: PinSwap, PinA: a, PinB: b, TT: permuteTT(s.cur, s.k, a, b)})
			}
		}
		if tt, ok := resynth[s.name]; ok {
			add(Candidate{Kind: Resynth, TT: tt})
		}
	}
	return out, nil
}

// EnumerateRewires builds the wiring-repair candidate list for a
// suspect set by structural reference against the golden design: for
// every suspect cell whose same-named golden cell drives pin p from a
// net the implementation wires differently, propose re-driving p from
// the implementation net carrying the golden fanin's name. This is the
// ECO "restore the documented route" repair — it covers bridging faults
// (sinks rerouted onto a shorted wire) and misrouted pins, and proposes
// nothing for cells whose wiring already matches. Suspects that are not
// live LUTs on both sides, or whose golden pin count differs, are
// skipped; the result is deterministic (suspects processed in sorted
// order, pins ascending).
// Differential oracle for wiring repair, with SearchRewires
// (TestEnumerateRewiresSkipsHealthy).
func (e *Engine) EnumerateRewires(suspects []string) []Candidate {
	names := append([]string(nil), suspects...)
	sort.Strings(names)
	nl := e.impl.Netlist()
	goldenNL := e.golden.Netlist()
	var out []Candidate
	for _, name := range names {
		id, ok := nl.CellByName(name)
		if !ok || nl.Cells[id].Dead || nl.Cells[id].Kind != netlist.KindLUT {
			continue
		}
		gid, ok := goldenNL.CellByName(name)
		if !ok || goldenNL.Cells[gid].Dead || goldenNL.Cells[gid].Kind != netlist.KindLUT {
			continue
		}
		c, g := &nl.Cells[id], &goldenNL.Cells[gid]
		if len(c.Fanin) != len(g.Fanin) {
			continue
		}
		for pin := range c.Fanin {
			want := goldenNL.NetName(g.Fanin[pin])
			if nl.NetName(c.Fanin[pin]) == want {
				continue
			}
			if _, ok := nl.NetByName(want); !ok {
				continue
			}
			out = append(out, Candidate{Kind: Rewire, Cell: name, PinA: pin, NewNet: want})
		}
	}
	return out
}

// SearchRewires runs the wiring-repair pipeline for a suspect set:
// enumerate golden-reference rewires, validate them serially (each
// candidate is a clone + SetFanin + recompile — rewires change the
// fanin set, so the lane-patch fast path cannot express them), confirm
// survivors on an independent verification stimulus, and rank what
// remains. Rewire candidate lists are tiny (one per misrouted pin), so
// the serial cost is a handful of replays. detStim must excite the
// error, mirroring Search.
// It is the differential oracle for wiring repair
// (TestSearchRewiresFixesMisroute, TestSearchRewiresFixesBridgeFault).
func (e *Engine) SearchRewires(suspects []string, detStim [][]uint64, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	cands := e.EnumerateRewires(suspects)
	out := &Outcome{Candidates: len(cands)}
	if len(cands) == 0 {
		return out, nil
	}
	alive, err := e.SerialValidate(cands, detStim)
	if err != nil {
		return nil, err
	}
	var survivors []Candidate
	for i, ok := range alive {
		if ok {
			survivors = append(survivors, cands[i])
		}
	}
	out.Survivors = len(survivors)
	if len(survivors) == 0 {
		return out, nil
	}
	verifyStim := testgenScalar(e.NumPIs(), verifyPatterns, cfg.Seed+verifySeedOffset, cfg.VerifyCycles)
	verified, err := e.SerialValidate(survivors, verifyStim)
	if err != nil {
		return nil, err
	}
	for i, ok := range verified {
		if ok {
			out.Ranked = append(out.Ranked, survivors[i])
		}
	}
	out.Verified = len(out.Ranked)
	if out.Verified > 0 {
		sort.Slice(out.Ranked, func(i, j int) bool { return rankLess(out.Ranked[i], out.Ranked[j]) })
		w := out.Ranked[0]
		out.Winner = &w
	}
	return out, nil
}

// site is one enumerable suspect: a live ≤4-input LUT of the
// implementation with its current truth-table word.
type site struct {
	name string
	id   netlist.CellID
	cur  uint16
	k    int
}

// observeTables reads, from the golden oracle's replay of obsStim, the
// streams of each site's same-named fanin nets and output net, and
// resynthesizes the truth table the observed behaviour demands:
// minterm m of the fanin stream must produce the output stream's value.
// Observing both sides of the cell on the golden replay keeps the pairs
// consistent even when the fault has walked the implementation's
// flip-flop state away from golden (a fault in next-state logic corrupts
// every downstream stream of the implementation, but never the golden
// one). This is purely behavioural use of the golden design — net-value
// streams by name, exactly what localization's stream comparison already
// observes — not a structural read. obsStim must be broadcast scalar
// stimulus (every word 0 or all-ones; ErrNotBroadcast otherwise). Sites
// with a fanin or output net the golden design does not know, or whose
// observations conflict (a rewired fanin makes the output no function of
// the observed nets), produce no table; unobserved minterms keep the
// implementation's current value.
func (e *Engine) observeTables(sites []site, obs *stimulus) (map[string]uint16, error) {
	nl := e.impl.Netlist()
	goldenNL := e.golden.Netlist()

	var names []string
	type probed struct {
		site     int
		faninCol int // first fanin stream in names
		outCol   int // output stream in names
	}
	var ps []probed
	for si, s := range sites {
		cell := &nl.Cells[s.id]
		first := len(names)
		known := true
		for _, f := range cell.Fanin {
			n := nl.NetName(f)
			if _, ok := goldenNL.NetByName(n); !ok {
				known = false
				break
			}
			names = append(names, n)
		}
		out := nl.NetName(cell.Out)
		if _, ok := goldenNL.NetByName(out); !known || !ok {
			names = names[:first]
			continue
		}
		ps = append(ps, probed{site: si, faninCol: first, outCol: len(names)})
		names = append(names, out)
	}
	if len(ps) == 0 {
		return map[string]uint16{}, nil
	}

	cols, err := e.goldenStreams(obs, names)
	if err != nil {
		return nil, fmt.Errorf("repair: observe: %w", err)
	}
	bit := func(col []uint64, c int) uint64 { return col[c>>6] >> uint(c&63) & 1 }

	out := make(map[string]uint16, len(ps))
	for _, p := range ps {
		s := sites[p.site]
		var want, care uint16
		conflict := false
		for c := 0; c < obs.steps && !conflict; c++ {
			m := 0
			for j := 0; j < s.k; j++ {
				m |= int(bit(cols[p.faninCol+j], c)) << uint(j)
			}
			b := uint16(bit(cols[p.outCol], c))
			mask := uint16(1) << uint(m)
			if care&mask != 0 {
				if (want>>uint(m))&1 != b {
					conflict = true
				}
				continue
			}
			care |= mask
			want |= b << uint(m)
		}
		if conflict {
			continue
		}
		tt := s.cur&^care | want
		out[s.name] = tt
	}
	return out, nil
}

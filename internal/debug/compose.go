package debug

// The syndrome-composition dictionary — the multi-fault extension of the
// single-fault dictionary in dictionary.go. A single dictionary answers
// "which fault produces exactly this signature"; the composition
// dictionary answers "which *pair* of faults composes into it". The key
// is the order-invariant XorSig accumulated alongside every signature:
// for two faults whose effects never collide on the same (cycle, PO)
// observation, the pair mutant's XorSig is exactly XorSigA ^ XorSigB —
// the classic syndrome-superposition identity (cf. Hamming/BCH syndrome
// decode, where a multi-error syndrome is the XOR of single-error
// columns). Decoding is meet-in-the-middle: for an observed x, every
// detected single a proposes partner signature x ^ XorSig(a), one O(1)
// map probe each — O(U) total, never the quadratic pair space. Candidate
// pairs are then confirmed *in simulation* by a lane-packed pair scan
// whose exact order-sensitive Signature must reproduce the observation,
// so a composable-pair diagnosis costs one trace replay and zero probes.
// A fully masked pair (one fault dominates; the partner contributes no
// observable difference) is indistinguishable from its dominant single
// by any PO observation — the classifier reports the single-fault class
// and flags the possibility instead of guessing, and anything it cannot
// explain is ClassUnknown: the caller falls back to probe-based rounds
// exactly as LocalizeDict does on a miss.

import (
	"fmt"
	"math/bits"
	"sort"

	"fpgadbg/internal/faults"
	"fpgadbg/internal/sim"
)

// SyndromeClass is the composition dictionary's verdict on an observed
// syndrome.
type SyndromeClass int

const (
	// ClassUnknown: neither a single signature nor any pair composition
	// explains the observation — fall back to probe rounds.
	ClassUnknown SyndromeClass = iota
	// ClassSingle: the exact signature of one single-fault equivalence
	// class. When MaybeMasked is also set, a pair whose second fault is
	// fully masked by the first is an equally valid explanation — the two
	// are indistinguishable from the primary outputs, and the suspect set
	// is sound for the dominant fault either way.
	ClassSingle
	// ClassPair: the XOR-composition of two single-fault syndromes. With
	// Confirmed set, a candidate pair reproduced the exact observed
	// signature in simulation.
	ClassPair
)

func (c SyndromeClass) String() string {
	switch c {
	case ClassSingle:
		return "single"
	case ClassPair:
		return "pair"
	default:
		return "unknown"
	}
}

// SyndromeMatch is one classification outcome: the class plus its ranked
// suspect sets.
type SyndromeMatch struct {
	Class SyndromeClass
	// Singles is the matched single-fault equivalence class (ClassSingle).
	Singles []faults.Fault
	// Pairs is the ranked candidate pair list (ClassPair): confirmed
	// pairs first, then unconfirmed composition candidates ordered by
	// mismatch-count consistency.
	Pairs []faults.Pair
	// Confirmed reports that Pairs[0] reproduced the exact observed
	// signature in a verification scan.
	Confirmed bool
	// MaybeMasked flags a ClassSingle observation that a masked pair
	// could equally produce. It is always set with ClassSingle: a pair
	// whose second fault is fully dominated leaves exactly the dominant
	// single's signature at the outputs, so no PO observation can rule
	// the pair out — the honest verdict is "this single, possibly
	// carrying a masked passenger", never a guessed wrong pair.
	MaybeMasked bool
}

// SyndromeDict is the composition dictionary for one golden design under
// one scan stimulus. It is immutable after BuildSyndromeDict and safe to
// share across campaigns (the service caches one per design+stimulus).
type SyndromeDict struct {
	// Cfg pins the scan stimulus (Patterns/Cycles/Seed); observations are
	// only comparable when produced under the identical ScanConfig.
	Cfg faults.ScanConfig
	// Faults is the universe size; Detected how many singles the stimulus
	// excites (the decodable alphabet).
	Faults   int
	Detected int

	singles []faults.ScanResult // detected single-fault outcomes
	bySig   map[uint64][]int    // exact order-sensitive signature → singles indices
	byXor   map[uint64][]int    // order-invariant XorSig → singles indices
}

// BuildSyndromeDict fault-simulates the design's exhaustive single-fault
// universe (plus any extra faults, e.g. an interconnect universe) under
// cfg and indexes every detected fault by both its exact signature and
// its composable XorSig. prog must be compiled from the golden netlist;
// it is only forked, never mutated.
func BuildSyndromeDict(prog *sim.Machine, extra []faults.Fault, cfg faults.ScanConfig) (*SyndromeDict, error) {
	u := faults.Universe(prog.Netlist())
	u = append(u, extra...)
	results, err := faults.Scan(prog, u, cfg)
	if err != nil {
		return nil, fmt.Errorf("debug: building syndrome dictionary: %w", err)
	}
	d := &SyndromeDict{
		Cfg:    cfg,
		Faults: len(u),
		bySig:  make(map[uint64][]int),
		byXor:  make(map[uint64][]int),
	}
	for _, r := range results {
		if !r.Detected {
			continue
		}
		i := len(d.singles)
		d.singles = append(d.singles, r)
		d.bySig[r.Signature] = append(d.bySig[r.Signature], i)
		d.byXor[r.XorSig] = append(d.byXor[r.XorSig], i)
	}
	d.Detected = len(d.singles)
	return d, nil
}

// Singles exposes the detected single-fault outcomes the dictionary
// indexes (suspect ranking for pair universes reuses them).
func (d *SyndromeDict) Singles() []faults.ScanResult { return d.singles }

// Signatures returns the number of distinct exact signatures indexed.
func (d *SyndromeDict) Signatures() int { return len(d.bySig) }

// MemoryFootprint estimates resident bytes for the artifact cache.
func (d *SyndromeDict) MemoryFootprint() int64 {
	return 160 + int64(len(d.singles))*96 + int64(len(d.bySig)+len(d.byXor))*48
}

// MaxPairCandidates bounds how many decoded pair candidates Classify
// returns (and Diagnose verifies): the decode is O(universe), but a
// degenerate observation could explain itself hundreds of ways, and the
// verification scan packs candidates into lanes — one replay verifies up
// to Lanes() of them.
const MaxPairCandidates = 512

// suspectPairTop bounds the anchors the second decode stage explores
// when exact XOR composition cannot explain the observation
// (interacting pairs do not superpose); suspectPartnersPerAnchor bounds
// the residual-covering partners proposed per anchor. Their product,
// clipped by MaxPairCandidates, is the stage's candidate budget.
const (
	suspectPairTop           = 48
	suspectPartnersPerAnchor = 8
)

// heavyPairTop bounds the heavy-hitter prior: the singles with the most
// mismatches have the widest fanout cones, which makes them both the
// likeliest pair components a sampler ranks to the front and the
// likeliest to interact (overlapping cones defeat XOR composition) —
// so they are paired exhaustively whenever stage 1 cannot explain the
// observation.
const heavyPairTop = 24

// Diagnose's second verification wave: when no wave-1 candidate
// reproduces the observed signature, anchor-ranked singles are paired
// with *every* detected single and lane-verified in chunks, stopping at
// the first chunk that reproduces the signature — the regime (common on
// FSM designs) where one component anchors well but its partner's
// interacted footprint is unrankable by any static heuristic, so the
// partner alphabet must stay broad. The budget is wave2AnchorDepth
// anchors deep (total pair verifications ≈ depth × alphabet, floored at
// wave2MinBudget): measured component ranks under the first-cycle-
// primary anchor ordering put the well-ranked component inside that
// depth for most decodable pairs, and a syndrome that exhausts the
// budget unresolved falls back to probe rounds — which cost far more
// than the bounded scan did.
const (
	wave2AnchorDepth = 32
	wave2MinBudget   = 16384
	wave2Chunk       = 8192
)

// Classify decodes an observed syndrome against the dictionary:
// exact-signature single match first, then meet-in-the-middle pair
// composition over the XorSig index, with a PO-mask consistency filter
// (the pair's divergence columns must be covered by its components') and
// a mismatch-count ranking (for non-colliding pairs the pair's mismatch
// count is exactly the sum of its components'). Interacting pairs do
// not superpose, so a second decode stage pairs the top
// PO-overlap-ranked suspects exhaustively — those candidates rank after
// every composition hit and only earn trust through Diagnose's
// in-simulation confirmation. No simulation happens here.
func (d *SyndromeDict) Classify(y faults.Syndrome) SyndromeMatch {
	if !y.Detected {
		return SyndromeMatch{Class: ClassUnknown}
	}
	if idx := d.bySig[y.Signature]; len(idx) > 0 {
		m := SyndromeMatch{Class: ClassSingle, MaybeMasked: true}
		for _, i := range idx {
			m.Singles = append(m.Singles, d.singles[i].Fault)
		}
		return m
	}
	type scored struct {
		pair faults.Pair
		cost int
	}
	var cands []scored
	seen := make(map[[2]int]bool)
	// Stage 1: exact XOR composition, meet-in-the-middle.
	for i := range d.singles {
		partner := y.XorSig ^ d.singles[i].XorSig
		for _, j := range d.byXor[partner] {
			if j == i {
				continue
			}
			a, b := i, j
			if b < a {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			ra, rb := &d.singles[a], &d.singles[b]
			if y.POMask&^(ra.POMask|rb.POMask) != 0 {
				continue
			}
			cost := ra.Mismatches + rb.Mismatches - y.Mismatches
			if cost < 0 {
				cost = -cost
			}
			cands = append(cands, scored{pair: faults.Pair{A: ra.Fault, B: rb.Fault}, cost: cost})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].cost < cands[j].cost })

	// Stage 2: the heavy-hitter prior. Pair the top singles by mismatch
	// count exhaustively — cone overlap between wide-fanout faults is
	// exactly what breaks superposition, so when stage 1 comes up short
	// these interacting combinations are the best unconditioned guesses.
	if len(cands) < MaxPairCandidates {
		heavy := make([]int, len(d.singles))
		for i := range heavy {
			heavy[i] = i
		}
		sort.SliceStable(heavy, func(a, b int) bool {
			return d.singles[heavy[a]].Mismatches > d.singles[heavy[b]].Mismatches
		})
		if len(heavy) > heavyPairTop {
			heavy = heavy[:heavyPairTop]
		}
		for x := 0; x < len(heavy) && len(cands) < MaxPairCandidates; x++ {
			for z := x + 1; z < len(heavy) && len(cands) < MaxPairCandidates; z++ {
				a, b := heavy[x], heavy[z]
				if b < a {
					a, b = b, a
				}
				if seen[[2]int{a, b}] {
					continue
				}
				seen[[2]int{a, b}] = true
				ra, rb := &d.singles[a], &d.singles[b]
				if y.POMask&(ra.POMask|rb.POMask) == 0 {
					continue
				}
				cost := ra.Mismatches + rb.Mismatches - y.Mismatches
				if cost < 0 {
					cost = -cost
				}
				cands = append(cands, scored{pair: faults.Pair{A: ra.Fault, B: rb.Fault}, cost: cost})
			}
		}
	}

	// Stage 3: residual-driven suspect pairing. Anchors are singles
	// ranked by agreement with the observed divergence columns, with a
	// bonus for matching the first divergence cycle (the first observed
	// mismatch usually comes from one component alone). Each anchor then
	// seeks partners that best cover the residual columns the anchor
	// leaves unexplained. Interaction can both shrink and grow a
	// component's observable footprint, so this is a recall heuristic,
	// not a proof — which is why these rank behind every stage-1 hit and
	// only earn trust through Diagnose's confirmation scan.
	if len(cands) < MaxPairCandidates {
		type ranked struct {
			i     int
			score int
		}
		anchors := d.anchorRank(y)
		if len(anchors) > suspectPairTop {
			anchors = anchors[:suspectPairTop]
		}
		var partners []ranked
		for _, ai := range anchors {
			if len(cands) >= MaxPairCandidates {
				break
			}
			ra := &d.singles[ai]
			residual := y.POMask &^ ra.POMask
			target := residual
			if target == 0 {
				// The anchor already covers every observed column: the
				// partner's contribution is hidden inside them.
				target = y.POMask
			}
			partners = partners[:0]
			for j := range d.singles {
				if j == ai {
					continue
				}
				cover := bits.OnesCount64(d.singles[j].POMask & target)
				if cover == 0 {
					continue
				}
				cost := ra.Mismatches + d.singles[j].Mismatches - y.Mismatches
				if cost < 0 {
					cost = -cost
				}
				partners = append(partners, ranked{i: j, score: 16*cover - bits.OnesCount64(d.singles[j].POMask&^y.POMask)*4 - min(cost, 3)})
			}
			sort.SliceStable(partners, func(a, b int) bool { return partners[a].score > partners[b].score })
			taken := 0
			for _, pn := range partners {
				if taken >= suspectPartnersPerAnchor || len(cands) >= MaxPairCandidates {
					break
				}
				a, b := ai, pn.i
				if b < a {
					a, b = b, a
				}
				if seen[[2]int{a, b}] {
					continue
				}
				seen[[2]int{a, b}] = true
				rb := &d.singles[pn.i]
				cost := ra.Mismatches + rb.Mismatches - y.Mismatches
				if cost < 0 {
					cost = -cost
				}
				cands = append(cands, scored{pair: faults.Pair{A: ra.Fault, B: rb.Fault}, cost: cost})
				taken++
			}
		}
	}

	if len(cands) == 0 {
		return SyndromeMatch{Class: ClassUnknown}
	}
	if len(cands) > MaxPairCandidates {
		cands = cands[:MaxPairCandidates]
	}
	m := SyndromeMatch{Class: ClassPair}
	for _, c := range cands {
		m.Pairs = append(m.Pairs, c.pair)
	}
	return m
}

// anchorRank orders the detected singles by agreement with the observed
// syndrome. The primary key is an exact first-divergence-cycle match:
// the pair's first observed mismatch is almost always one component
// acting alone, so that component's solo FirstCycle equals the pair's —
// a far sharper signal on few-output FSM designs than PO masks, which
// interaction distorts. Within each key the tiebreak is PO-column
// agreement, 2·overlap − spill. Singles with no PO overlap are omitted.
// Both the stage-3 decode and Diagnose's second verification wave
// anchor on this ordering.
func (d *SyndromeDict) anchorRank(y faults.Syndrome) []int {
	type ranked struct{ i, score int }
	var anchors []ranked
	for i := range d.singles {
		overlap := bits.OnesCount64(d.singles[i].POMask & y.POMask)
		if overlap == 0 {
			continue
		}
		s := 2*overlap - bits.OnesCount64(d.singles[i].POMask&^y.POMask)
		if d.singles[i].FirstCycle == y.FirstCycle {
			s += 1 << 20
		}
		anchors = append(anchors, ranked{i: i, score: s})
	}
	sort.SliceStable(anchors, func(a, b int) bool { return anchors[a].score > anchors[b].score })
	out := make([]int, len(anchors))
	for k, a := range anchors {
		out[k] = a.i
	}
	return out
}

// Diagnose is Classify plus in-simulation confirmation: decoded pair
// candidates are lane-packed into pair scans on a fork of prog, and any
// candidate whose exact order-sensitive Signature reproduces the
// observation is promoted to the front with Confirmed set. Verification
// runs in two waves: wave 1 scans the decoded candidate list; if nothing
// there reproduces the signature, wave 2 pairs the top anchor-ranked
// singles with every detected single (budget-capped, same-site pairs
// skipped) and scans those — catching the interacting pairs whose
// partner footprint no static ranking finds. prog must be the machine
// (or a same-program fork) the dictionary was built from.
func (d *SyndromeDict) Diagnose(prog *sim.Machine, y faults.Syndrome) (SyndromeMatch, error) {
	m := d.Classify(y)
	if m.Class != ClassPair || len(m.Pairs) == 0 {
		return m, nil
	}
	verify := func(cands []faults.Pair) (confirmed, rest []faults.Pair, err error) {
		res, err := faults.PairScan(prog, cands, d.Cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("debug: verifying pair candidates: %w", err)
		}
		for _, r := range res {
			if r.Detected && r.Signature == y.Signature {
				confirmed = append(confirmed, r.Pair)
			} else {
				rest = append(rest, r.Pair)
			}
		}
		return confirmed, rest, nil
	}
	confirmed, rest, err := verify(m.Pairs)
	if err != nil {
		return m, err
	}
	if len(confirmed) == 0 {
		confirmed, err = d.diagnoseWave2(prog, y, verify, m.Pairs)
		if err != nil {
			return m, err
		}
	}
	if len(confirmed) > 0 {
		m.Pairs = append(confirmed, rest...)
		m.Confirmed = true
	}
	return m, nil
}

// diagnoseWave2 runs Diagnose's second verification wave: anchor-ranked
// singles paired with every other detected single, generated in anchor
// order and lane-verified a chunk at a time, returning the confirmed
// pairs of the first chunk that reproduces the signature. Same-site
// pairs and candidates wave 1 already scanned are skipped. Unconfirmed
// wave-2 pairs carry no ranking signal and are discarded — only the
// confirmed ones reach the match.
func (d *SyndromeDict) diagnoseWave2(prog *sim.Machine, y faults.Syndrome,
	verify func([]faults.Pair) (confirmed, rest []faults.Pair, err error), tried []faults.Pair) ([]faults.Pair, error) {
	if d.Detected < 2 {
		return nil, nil
	}
	budget := wave2AnchorDepth * d.Detected
	if budget < wave2MinBudget {
		budget = wave2MinBudget
	}
	nl := prog.Netlist()
	seen := make(map[faults.Pair]bool, len(tried)+budget)
	for _, p := range tried {
		seen[p] = true
		seen[faults.Pair{A: p.B, B: p.A}] = true
	}
	var chunk []faults.Pair
	spent := 0
	for _, ai := range d.anchorRank(y) {
		if spent >= budget {
			break
		}
		fa := d.singles[ai].Fault
		for j := range d.singles {
			fb := d.singles[j].Fault
			if fa == fb || faults.SameSite(nl, fa, fb) {
				continue
			}
			p := faults.Pair{A: fa, B: fb}
			if seen[p] || seen[faults.Pair{A: fb, B: fa}] {
				continue
			}
			seen[p] = true
			chunk = append(chunk, p)
			spent++
			if len(chunk) >= wave2Chunk {
				confirmed, _, err := verify(chunk)
				if err != nil || len(confirmed) > 0 {
					return confirmed, err
				}
				chunk = chunk[:0]
			}
			if spent >= budget {
				break
			}
		}
	}
	if len(chunk) == 0 {
		return nil, nil
	}
	confirmed, _, err := verify(chunk)
	return confirmed, err
}

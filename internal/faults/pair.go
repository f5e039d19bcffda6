package faults

// The fault-pair model: two simultaneous faults in one design. A pair is
// ONE mutant and consumes ONE simulator lane — PairScan stacks two
// SetLaneFault calls on the same lane, so a width-W machine still
// retires 64·W pair mutants per trace replay. The quadratic full pair
// set is never enumerated: PairUniverse draws a deterministic sample,
// suspect-ranked when single-fault scan results are available (detected
// faults with rich syndromes pair first — the pairs a real double-defect
// diagnosis will actually confront). SerialPairScan is the clone+apply-
// both+recompile differential oracle PairScan is pinned against.

import (
	"fmt"
	"math/rand"
	"sort"

	"fpgadbg/internal/netlist"
	"fpgadbg/internal/sim"
)

// Pair is an unordered pair of simultaneous faults — one two-fault
// mutant. A and B are kept in a canonical order by PairUniverse; both
// engines arm/apply A before B so composition on shared structure is
// identical.
type Pair struct {
	A, B Fault
}

// Describe renders the pair with design names resolved.
func (p Pair) Describe(nl *netlist.Netlist) string {
	return fmt.Sprintf("{%s; %s}", p.A.Describe(nl), p.B.Describe(nl))
}

// PairBatchesN splits a pair list into groups of at most n mutants — one
// group per replay of an n-lane machine. Lane accounting is per mutant:
// a pair consumes one lane, not two.
func PairBatchesN(ps []Pair, n int) [][]Pair { return batchesOf(ps, n) }

// PairConfig shapes PairUniverse's sampling.
type PairConfig struct {
	// MaxPairs caps the sampled universe (default 256).
	MaxPairs int
	Seed     int64
	// Singles, when set, are single-fault scan outcomes over (a superset
	// of) the candidate faults; detected faults are ranked to the front —
	// by descending mismatch count — and the sampler is biased toward the
	// front of the ranking, so the universe concentrates on pairs whose
	// components are individually observable (the ones syndrome
	// composition can decode).
	Singles []ScanResult
}

func (c PairConfig) withDefaults() PairConfig {
	if c.MaxPairs < 1 {
		c.MaxPairs = 256
	}
	return c
}

// SameSite reports whether two faults perturb the same net site — pairs
// of such faults are excluded from universes and candidate lists because
// their composition is engine- and arming-order-dependent.
func SameSite(nl *netlist.Netlist, a, b Fault) bool {
	return siteNet(nl, a) == siteNet(nl, b)
}

// siteNet is the net a fault's perturbation lands on — the collision key
// PairUniverse uses: two faults on the same site compose engine-
// dependently (arming order on one node vs. netlist rewrite order), so
// such pairs are excluded from the universe.
func siteNet(nl *netlist.Netlist, f Fault) netlist.NetID {
	switch f.Kind {
	case StuckAt0, StuckAt1, BridgeAND, BridgeOR:
		return f.Net
	case LUTBitFlip, RouteStuck0, RouteStuck1:
		return nl.Cells[f.Cell].Out
	default:
		return netlist.NilNet
	}
}

// PairUniverse draws a deterministic sample of fault pairs from the
// candidate list u (typically Universe(nl), optionally extended with
// InterconnectUniverse faults). Pairs whose two faults perturb the same
// net are excluded, as are pairs bridging a net that the partner fault
// perturbs (see siteNet). With cfg.Singles the candidates are
// suspect-ranked first and sampling is front-biased; the top of the
// ranking is also paired exhaustively (capped), so the most diagnosable
// pairs are always present. Order is deterministic for a given seed.
func PairUniverse(nl *netlist.Netlist, u []Fault, cfg PairConfig) []Pair {
	cfg = cfg.withDefaults()
	if len(u) < 2 {
		return nil
	}
	cand := append([]Fault(nil), u...)
	if len(cfg.Singles) > 0 {
		rank := make(map[Fault]int, len(cfg.Singles))
		for _, r := range cfg.Singles {
			if r.Detected {
				rank[r.Fault] = r.Mismatches
			}
		}
		sort.SliceStable(cand, func(i, j int) bool { return rank[cand[i]] > rank[cand[j]] })
	}

	seen := make(map[Pair]bool, cfg.MaxPairs)
	out := make([]Pair, 0, cfg.MaxPairs)
	admit := func(a, b Fault) {
		if len(out) >= cfg.MaxPairs || a == b {
			return
		}
		if siteNet(nl, a) == siteNet(nl, b) {
			return
		}
		p := Pair{A: a, B: b}
		if seen[p] || seen[Pair{A: b, B: a}] {
			return
		}
		seen[p] = true
		out = append(out, p)
	}

	// Exhaustive head: all pairs among the top-ranked candidates (only
	// meaningful when a ranking was supplied; bounded well below MaxPairs
	// so sampling keeps breadth).
	if len(cfg.Singles) > 0 {
		head := 12
		if head > len(cand) {
			head = len(cand)
		}
		for i := 0; i < head; i++ {
			for j := i + 1; j < head; j++ {
				admit(cand[i], cand[j])
			}
		}
	}

	// Front-biased random fill: each index is the min of two uniforms —
	// a triangular distribution favoring the (suspect-ranked) front.
	r := rand.New(rand.NewSource(cfg.Seed))
	pick := func() int {
		i, j := r.Intn(len(cand)), r.Intn(len(cand))
		if j < i {
			i = j
		}
		return i
	}
	for tries := 0; len(out) < cfg.MaxPairs && tries < cfg.MaxPairs*32; tries++ {
		admit(cand[pick()], cand[pick()])
	}
	return out
}

// PairScanResult is one pair mutant's simulated outcome.
type PairScanResult struct {
	Pair Pair
	Syndrome
}

// PairScan fault-simulates every pair in Lanes()-sized batches of
// two-fault mutants: per lane, both faults of one pair are armed with
// stacked SetLaneFault calls, so the batch cost is identical to a
// single-fault scan. Results are in input order.
func PairScan(prog *sim.Machine, ps []Pair, cfg ScanConfig) ([]PairScanResult, error) {
	cfg = cfg.withDefaults()
	return PairScanStim(prog, ps, cfg.Stimulus(len(prog.PIOrder())), cfg.OnBatch)
}

// PairScanStim is PairScan over an explicit broadcast stimulus sequence.
func PairScanStim(prog *sim.Machine, ps []Pair, stim [][]uint64, onBatch func(done, total int) error) ([]PairScanResult, error) {
	gt := prog.Fork().RunTrace(stim)
	mu := prog.Fork()
	batches := PairBatchesN(ps, prog.Lanes())
	out := make([]PairScanResult, 0, len(ps))
	var tr sim.Trace
	signers := make([]Signer, prog.Lanes())
	for bi, batch := range batches {
		mu.ClearLaneFaults()
		for lane, p := range batch {
			for _, f := range [2]Fault{p.A, p.B} {
				lf, err := f.Lane()
				if err != nil {
					return nil, err
				}
				if err := mu.SetLaneFault(lane, lf); err != nil {
					return nil, fmt.Errorf("faults: arming %s: %w", p.Describe(prog.Netlist()), err)
				}
			}
			signers[lane].Reset()
		}
		mu.RunTraceInto(&tr, stim)
		diffTraceInto(signers, batch, &tr, gt)
		for lane, p := range batch {
			out = append(out, PairScanResult{Pair: p, Syndrome: signers[lane].Syndrome()})
		}
		if onBatch != nil {
			if err := onBatch(bi+1, len(batches)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// SerialPairScan computes the same per-pair outcomes one mutant at a
// time — clone the golden netlist, apply both faults (A first, matching
// PairScan's arming order), recompile and replay; faults with no netlist
// form (source-net stuck-ats) run as overrides on the compiled mutant.
// It is the differential oracle for PairScan: outcomes must be
// bit-identical (TestPairScanMatchesSerialAcrossCatalog).
func SerialPairScan(prog *sim.Machine, ps []Pair, cfg ScanConfig) ([]PairScanResult, error) {
	cfg = cfg.withDefaults()
	stim := cfg.Stimulus(len(prog.PIOrder()))
	golden := prog.Netlist()
	gt := prog.Fork().RunTrace(stim)
	out := make([]PairScanResult, 0, len(ps))
	var s Signer
	for pi, p := range ps {
		mutant := golden.Clone()
		var pending []Fault
		for _, f := range [2]Fault{p.A, p.B} {
			applied, err := f.Apply(mutant)
			if err != nil {
				return nil, err
			}
			if !applied {
				pending = append(pending, f)
			}
		}
		m2, err := sim.Compile(mutant)
		if err != nil {
			return nil, fmt.Errorf("faults: %s: %w", p.Describe(golden), err)
		}
		for _, f := range pending {
			w := uint64(0)
			if f.Kind == StuckAt1 {
				w = ^uint64(0)
			}
			if err := m2.SetOverride(f.Net, w); err != nil {
				return nil, fmt.Errorf("faults: %s: %w", f.Describe(golden), err)
			}
		}
		tr := m2.RunTrace(stim)
		s.Reset()
		for c := 0; c < tr.Cycles; c++ {
			for po := 0; po < tr.NumPOs; po++ {
				if tr.Out(c, po) != gt.Out(c, po) {
					s.Note(c, po)
				}
			}
		}
		out = append(out, PairScanResult{Pair: p, Syndrome: s.Syndrome()})
		if cfg.OnBatch != nil && ((pi+1)%64 == 0 || pi+1 == len(ps)) {
			if err := cfg.OnBatch((pi+1+63)/64, (len(ps)+63)/64); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

package repair

import (
	"errors"
	"fmt"
	"sort"

	"fpgadbg/internal/obs"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/testgen"
)

// ErrNotExcited reports that the unrepaired implementation already
// matches the golden model under the given stimulus — there is nothing
// for candidate validation to discriminate on, so the search would rank
// noise. Callers fall back to probe-based flows.
var ErrNotExcited = errors.New("repair: stimulus does not excite the error")

// Config tunes one candidate search.
type Config struct {
	// ObservePatterns extends the resynthesis observation beyond the
	// detection stimulus with this many extra broadcast patterns, so
	// rarely excited minterms still get observed (default 256, 0 keeps
	// the default; negative disables the extension).
	ObservePatterns int
	// VerifyPatterns sizes the independent verification stimulus
	// survivors are ranked by (default 128).
	VerifyPatterns int
	// VerifyCycles holds each verification pattern for this many clock
	// cycles (default 2).
	VerifyCycles int
	// RefineRounds bounds the observation-refinement loop: when no
	// survivor verifies, the failed verification stimulus — golden
	// behaviour, i.e. ground truth — is folded into the resynthesis
	// observation and the search repeats with a fresh verification
	// stream (default 2 rounds total).
	RefineRounds int
	// Seed derives the observation and verification streams; they are
	// drawn from offsets of it so neither replays the detection stimulus.
	Seed int64
	// OnBatch, when set, is called after each Lanes()-candidate
	// validation batch; returning an error aborts the search (the
	// campaign service cancels through it).
	OnBatch func(done, total int) error
	// Obs, when set, receives repair-enumerate and repair-validate spans
	// with candidate/batch counters and the golden oracle's oracle-hit
	// and oracle-miss lookups. Nil disables tracing at zero cost.
	Obs *obs.Trace
}

func (c Config) withDefaults() Config {
	if c.ObservePatterns == 0 {
		c.ObservePatterns = 256
	}
	if c.VerifyPatterns < 1 {
		c.VerifyPatterns = 128
	}
	if c.VerifyCycles < 1 {
		c.VerifyCycles = 2
	}
	if c.RefineRounds < 1 {
		c.RefineRounds = 2
	}
	return c
}

// Outcome is the result of one candidate search.
type Outcome struct {
	// Candidates is the enumerated candidate count; Survivors how many
	// matched the golden outputs on the whole detection stimulus;
	// Verified how many of those also matched on the independent
	// verification stimulus.
	Candidates int
	Survivors  int
	Verified   int
	// Batches counts Lanes()-candidate lane batches armed (detection +
	// verification passes), however early each replay stopped; wide
	// machines need proportionally fewer.
	Batches int
	// Winner is the top-ranked verified candidate, nil when the search
	// found no correction that explains all observed behaviour.
	Winner *Candidate
	// Ranked lists every verified candidate, best first.
	Ranked []Candidate
}

// Validate scores candidates Lanes() per trace replay: each batch arms
// one truth-table substitution per lane (sim.SetLanePatch) on the
// engine's shared compiled implementation program and compares every
// lane's primary-output stream against the golden oracle's streams — a
// wide implementation machine retires 64·W candidates per replay. stim
// must be broadcast scalar stimulus (ErrNotBroadcast otherwise). alive[i]
// reports that candidate i's lanes never diverged from the golden
// stream. onBatch may be nil.
func (e *Engine) Validate(cands []Candidate, stim [][]uint64, onBatch func(done, total int) error) (alive []bool, batches int, err error) {
	gt, err := e.streams(stim, e.poNames)
	if err != nil {
		return nil, 0, err
	}
	alive, batches, _, err = e.validateAgainst(gt, cands, stim, onBatch)
	return alive, batches, err
}

// replayWindow is how many stimulus steps a candidate replay runs before
// checking whether anything is left to learn: validation stops a batch
// once every lane has diverged, the excitation check at the first
// mismatch. Most candidates die within the first few hundred steps of a
// detection stimulus thousands long. A window costs one trace-call setup
// and, when it cuts a held pattern, one re-evaluation of that pattern
// (quiescent-step reuse is local to a call). Over the 32 catalog searches
// of TestSearchOutcomesPinned, windows of 16 to 256 steps measured within
// run-to-run noise of each other and 30–40% faster than replaying the
// whole stimulus (2-vCPU x86-64 host); 64 sits in the flat middle and is
// a multiple of the service's default hold lengths (2 and 4), so window
// edges fall on pattern changes.
const replayWindow = 64

// replayUntil replays stim on the armed implementation program from
// reset, replayWindow steps at a time, handing each window's trace (in
// e.tr, starting at step lo) to more until it returns false. It reports
// how many steps were replayed.
func (e *Engine) replayUntil(stim [][]uint64, more func(lo int) bool) (replayed int) {
	e.impl.Reset()
	for lo := 0; lo < len(stim); lo += replayWindow {
		e.impl.ResumeTraceInto(&e.tr, stim[lo:min(lo+replayWindow, len(stim))])
		replayed += e.tr.Cycles
		if !more(lo) {
			break
		}
	}
	return replayed
}

// validateAgainst is Validate with the golden primary-output streams
// (e.poNames order) already read from the oracle, so the excitation
// check and the detection pass of one Search share them. replayed counts
// the implementation steps actually replayed across all batches.
func (e *Engine) validateAgainst(gt [][]uint64, cands []Candidate, stim [][]uint64, onBatch func(done, total int) error) (alive []bool, batches, replayed int, err error) {
	nl := e.impl.Netlist()
	alive = make([]bool, len(cands))
	lanes := e.impl.Lanes()
	masks := make([]uint64, lanes/64) // one alive bit per lane, word-packed
	total := (len(cands) + lanes - 1) / lanes
	for base := 0; base < len(cands); base += lanes {
		batch := cands[base:]
		if len(batch) > lanes {
			batch = batch[:lanes]
		}
		e.impl.ClearLaneFaults()
		for lane, c := range batch {
			id, ok := nl.CellByName(c.Cell)
			if !ok {
				return nil, batches, replayed, fmt.Errorf("repair: candidate cell %q vanished", c.Cell)
			}
			if err := e.impl.SetLanePatch(lane, id, c.TT); err != nil {
				return nil, batches, replayed, fmt.Errorf("repair: arming %s: %w", c.Describe(), err)
			}
		}
		batches++
		W := e.impl.Width()
		for w := 0; w < W; w++ {
			switch rem := len(batch) - w*64; {
			case rem >= 64:
				masks[w] = ^uint64(0)
			case rem > 0:
				masks[w] = uint64(1)<<uint(rem) - 1
			default:
				masks[w] = 0
			}
		}
		replayed += e.replayUntil(stim, func(lo int) bool {
			anyLive := true
			for c := 0; c < e.tr.Cycles && anyLive; c++ {
				anyLive = false
				for po, col := range e.iCols {
					// Broadcast stimulus keeps the golden lane words equal,
					// so one oracle bit covers every perturbed word.
					g := goldenBit(gt[po], lo+c)
					for w := 0; w < W; w++ {
						masks[w] &^= e.tr.OutW(c, col, w) ^ g
					}
				}
				for w := 0; w < W; w++ {
					anyLive = anyLive || masks[w] != 0
				}
			}
			return anyLive
		})
		for lane := range batch {
			alive[base+lane] = masks[lane/64]>>uint(lane&63)&1 != 0
		}
		if onBatch != nil {
			if err := onBatch(batches, total); err != nil {
				return nil, batches, replayed, err
			}
		}
	}
	e.impl.ClearLaneFaults()
	return alive, batches, replayed, nil
}

// SerialValidate computes the same per-candidate outcomes one mutant at
// a time — per candidate: clone the implementation netlist, apply the
// repair, recompile, replay. It is the differential oracle for Validate
// (surviving sets must be identical) and the baseline the lane-parallel
// candidate-validation speedup is measured against.
func (e *Engine) SerialValidate(cands []Candidate, stim [][]uint64) ([]bool, error) {
	gt := e.golden.Fork()
	if err := gt.BindNames(e.piNames); err != nil {
		return nil, err
	}
	goldenTr := gt.RunTrace(stim)
	implNL := e.impl.Netlist()
	goldenPI := make(map[string]bool, len(e.piNames))
	for _, n := range e.piNames {
		goldenPI[n] = true
	}
	alive := make([]bool, len(cands))
	for i, c := range cands {
		mutant := implNL.Clone()
		if _, err := c.Apply(mutant); err != nil {
			return nil, err
		}
		m, err := sim.Compile(mutant)
		if err != nil {
			return nil, fmt.Errorf("repair: serial %s: %w", c.Describe(), err)
		}
		if err := m.BindNames(e.piNames); err != nil {
			return nil, err
		}
		for _, n := range mutant.SortedPINames() {
			if goldenPI[n] {
				continue
			}
			if id, ok := mutant.NetByName(n); ok {
				if err := m.SetOverride(id, 0); err != nil {
					return nil, err
				}
			}
		}
		cols, err := m.POCols(e.poNames)
		if err != nil {
			return nil, err
		}
		tr := m.RunTrace(stim)
		ok := true
		for cy := 0; cy < tr.Cycles && ok; cy++ {
			for po, col := range cols {
				if tr.Out(cy, col) != goldenTr.Out(cy, po) {
					ok = false
					break
				}
			}
		}
		alive[i] = ok
	}
	return alive, nil
}

// rankLess orders verified candidates best-first: fewest truth-table
// changes, then kind (bit flip before pin swap before resynthesis), then
// cell name and candidate detail for determinism.
func rankLess(a, b Candidate) bool {
	if a.Flips != b.Flips {
		return a.Flips < b.Flips
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Cell != b.Cell {
		return a.Cell < b.Cell
	}
	if a.Bit != b.Bit {
		return a.Bit < b.Bit
	}
	if a.PinA != b.PinA {
		return a.PinA < b.PinA
	}
	return a.PinB < b.PinB
}

// Search runs the full candidate-search pipeline for a suspect set:
// enumerate candidates (resynthesis observed under detStim plus
// cfg.ObservePatterns extra broadcast patterns), validate them
// lane-parallel against the golden oracle on detStim, re-validate the
// survivors on an independent verification stimulus, and rank what
// remains by minimality. detStim must be broadcast scalar stimulus that
// excites the error — Search returns ErrNotExcited otherwise, and the
// caller falls back to its probe- or golden-based flow.
func (e *Engine) Search(suspects []string, detStim [][]uint64, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()

	// The unrepaired implementation must fail detStim, or survival means
	// nothing. The detection oracle lookup is reported on the first
	// detection-validation span.
	hits, misses := e.oracleHits, e.oracleMisses
	gt, err := e.streams(detStim, e.poNames)
	if err != nil {
		return nil, err
	}
	detHits, detMisses := e.oracleHits-hits, e.oracleMisses-misses
	e.impl.ClearLaneFaults()
	excited := false
	e.replayUntil(detStim, func(lo int) bool {
		for c := 0; c < e.tr.Cycles && !excited; c++ {
			for po, col := range e.iCols {
				if e.tr.Out(c, col) != goldenBit(gt[po], lo+c) {
					excited = true
					break
				}
			}
		}
		return !excited
	})
	if !excited {
		return nil, ErrNotExcited
	}

	obsStim := append([][]uint64{}, detStim...)
	if cfg.ObservePatterns > 0 {
		obsStim = append(obsStim, testgenScalar(e.NumPIs(), cfg.ObservePatterns, cfg.Seed+obsSeedOffset, cfg.VerifyCycles)...)
	}
	out := &Outcome{}
	for round := 0; round < cfg.RefineRounds; round++ {
		esp := cfg.Obs.Start(obs.StageRepairEnumerate)
		hits, misses = e.oracleHits, e.oracleMisses
		cands, err := e.Enumerate(suspects, obsStim)
		esp.Add("candidates", int64(len(cands)))
		addOracleAttrs(esp, e.oracleHits-hits, e.oracleMisses-misses)
		esp.End()
		if err != nil {
			return nil, err
		}
		out.Candidates = len(cands)
		if len(cands) == 0 {
			return out, nil
		}

		vsp := cfg.Obs.Start(obs.StageRepairValidate)
		alive, nb, replayed, err := e.validateAgainst(gt, cands, detStim, cfg.OnBatch)
		vsp.Add("candidates-validated", int64(len(cands)))
		vsp.Add("lane-batches", int64(nb))
		vsp.Add("replayed-cycles", int64(replayed))
		addOracleAttrs(vsp, detHits, detMisses)
		detHits, detMisses = 0, 0
		vsp.End()
		if err != nil {
			return nil, err
		}
		out.Batches += nb
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

		verifyStim := testgenScalar(e.NumPIs(), cfg.VerifyPatterns,
			cfg.Seed+verifySeedOffset+int64(round)*verifySeedStride, cfg.VerifyCycles)
		wsp := cfg.Obs.Start(obs.StageRepairValidate)
		hits, misses = e.oracleHits, e.oracleMisses
		vt, err := e.streams(verifyStim, e.poNames)
		if err != nil {
			wsp.End()
			return nil, err
		}
		verified, nb, replayed, err := e.validateAgainst(vt, survivors, verifyStim, cfg.OnBatch)
		wsp.Add("candidates-validated", int64(len(survivors)))
		wsp.Add("lane-batches", int64(nb))
		wsp.Add("replayed-cycles", int64(replayed))
		addOracleAttrs(wsp, e.oracleHits-hits, e.oracleMisses-misses)
		wsp.End()
		if err != nil {
			return nil, err
		}
		out.Batches += nb
		out.Ranked = out.Ranked[:0]
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
			return out, nil
		}
		// No survivor verified: the verification stream excited behaviour
		// the observation never saw. It is a golden replay — ground truth —
		// so fold it into the observation and search again.
		obsStim = append(obsStim, verifyStim...)
	}
	return out, nil
}

// addOracleAttrs records golden-oracle lookups on a span: hits served
// every stream from memo, misses replayed the golden model.
func addOracleAttrs(sp *obs.Span, hits, misses int64) {
	sp.Add("oracle-hit", hits)
	sp.Add("oracle-miss", misses)
}

// Seed offsets keeping the observation and verification streams disjoint
// from each other and from the detection stimulus seed.
const (
	obsSeedOffset    = 0x0b5e7ed
	verifySeedOffset = 0x7e51f1e
	verifySeedStride = 0x1009
)

// testgenScalar builds patterns broadcast scalar vectors held cycles
// clock cycles each.
func testgenScalar(npi, patterns int, seed int64, cycles int) [][]uint64 {
	return testgen.Repeat(testgen.ScalarBlocks(npi, patterns, seed), cycles)
}

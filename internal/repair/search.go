package repair

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/testgen"
)

// ErrNotExcited reports that the unrepaired implementation already
// matches the golden model under the given stimulus — there is nothing
// for candidate validation to discriminate on, so the search would rank
// noise. Callers fall back to probe-based flows.
var ErrNotExcited = errors.New("repair: stimulus does not excite the error")

// Search stimulus sizes.
const (
	// observePatterns extends the resynthesis observation beyond the
	// detection stimulus with this many extra broadcast patterns, so
	// rarely excited minterms still get observed.
	observePatterns = 256
	// verifyPatterns sizes the independent verification stimulus
	// survivors are ranked by.
	verifyPatterns = 128
	// refineRounds bounds the observation-refinement loop: when no
	// survivor verifies, the failed verification stimulus — golden
	// behaviour, i.e. ground truth — is folded into the resynthesis
	// observation and the search repeats with a fresh verification
	// stream.
	refineRounds = 2
)

// Config tunes one candidate search.
type Config struct {
	// VerifyCycles holds each verification pattern for this many clock
	// cycles (default 2).
	VerifyCycles int
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
	if c.VerifyCycles < 1 {
		c.VerifyCycles = 2
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
// Only tests call this raw-stimulus entry: it is the lane side of the
// differential oracle pair with SerialValidate
// (TestValidateMatchesSerial*).
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
// edges fall on pattern changes. It must stay a multiple of 64: the
// implementation memo's frontiers fall on window edges, and readers rely
// on those being stream-word boundaries (implStreams).
const replayWindow = 64

// maxConeShare is the largest fanout cone, as a share of the compiled
// program's nodes, that validation replays on its own (validateCone); a
// batch whose cells reach more replays the whole program. A cone replay
// pays per step for its boundary loads and per window for the memo, so
// its cost does not fall to its share. Measured per single-cell batch
// with a warm memo (cone time ÷ whole-program time, 2048-step catalog
// detection stimuli, 2-vCPU x86-64 host): at 64 lanes c880 0.3–0.7 at
// share 0.07–0.09 and 1.1–1.2 at 0.52, c499 0.1 at 0.01 and 0.9–1.5 at
// 0.44–0.45, s9234 0.6 at 0.43 and 0.7–1.0 from 0.52 up; at 256 lanes
// the cone wins up to about 0.75. 0.4 keeps every measured 64-lane cone
// below its whole-program replay.
const maxConeShare = 0.4

// replayMode picks how validate replays a batch. Campaigns use
// replayAuto; the differential tests force either path.
type replayMode uint8

const (
	replayAuto replayMode = iota // cone up to maxConeShare, else the whole program
	replayFull                   // always the whole program
	replayCone                   // always the cone
)

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

// validation is one validate pass: per-candidate survival plus
// what the pass cost, for span attrs.
type validation struct {
	alive []bool
	// batches counts armed lane batches; replayed the steps they replayed;
	// coneNodes the nodes of the cones replayed instead of the whole
	// program; fullProgram that some batch replayed the whole program.
	batches, replayed, coneNodes int
	fullProgram                  bool
}

// addAttrs records the pass on a repair-validate span.
func (v *validation) addAttrs(sp *obs.Span, cands int) {
	sp.Add("candidates-validated", int64(cands))
	sp.Add("lane-batches", int64(v.batches))
	sp.Add("replayed-cycles", int64(v.replayed))
	sp.Add("cone-nodes", int64(v.coneNodes))
	full := int64(0)
	if v.fullProgram {
		full = 1
	}
	sp.Add("full-program", full)
}

// validateAgainst is Validate with the golden primary-output streams
// (e.poNames order) already read from the oracle. replayed counts the
// implementation steps actually replayed across all batches.
func (e *Engine) validateAgainst(gt [][]uint64, cands []Candidate, stim [][]uint64, onBatch func(done, total int) error) (alive []bool, batches, replayed int, err error) {
	st, err := e.named(stim)
	if err != nil {
		return nil, 0, 0, err
	}
	v, err := e.validate(gt, cands, st, onBatch, replayAuto)
	return v.alive, v.batches, v.replayed, err
}

// validate scores cands against the golden primary-output streams gt
// (e.poNames order), so the excitation check and the detection pass of
// one Search share them. Each batch replays its cells' fanout cone
// against the implementation memo when the cone is small (validateCone),
// the whole patched program otherwise; both give every lane the verdict
// of a whole-program replay.
func (e *Engine) validate(gt [][]uint64, cands []Candidate, st *stimulus, onBatch func(done, total int) error, mode replayMode) (v validation, err error) {
	nl := e.impl.Netlist()
	v.alive = make([]bool, len(cands))
	lanes := e.impl.Lanes()
	masks := make([]uint64, lanes/64) // one alive bit per lane, word-packed
	total := (len(cands) + lanes - 1) / lanes
	cells := make([]netlist.CellID, 0, lanes)
	for base := 0; base < len(cands); base += lanes {
		batch := cands[base:]
		if len(batch) > lanes {
			batch = batch[:lanes]
		}
		e.impl.ClearLaneFaults()
		cells = cells[:0]
		for lane, c := range batch {
			id, ok := nl.CellByName(c.Cell)
			if !ok {
				return v, fmt.Errorf("repair: candidate cell %q vanished", c.Cell)
			}
			if err := e.impl.SetLanePatch(lane, id, c.TT); err != nil {
				return v, fmt.Errorf("repair: arming %s: %w", c.Describe(), err)
			}
			cells = append(cells, id)
		}
		v.batches++
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
		var cone *sim.Cone
		if mode != replayFull {
			if cone, err = e.impl.Cone(cells); err != nil {
				return v, fmt.Errorf("repair: %w", err)
			}
			if mode == replayAuto && cone.Share() > maxConeShare {
				cone = nil
			}
		}
		if cone != nil {
			n, err := e.validateCone(gt, st, cone, masks)
			if err != nil {
				return v, err
			}
			v.replayed += n
			v.coneNodes += cone.Nodes()
		} else {
			v.fullProgram = true
			v.replayed += e.replayUntil(st.Rows(), func(lo int) bool {
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
		}
		for lane := range batch {
			v.alive[base+lane] = masks[lane/64]>>uint(lane&63)&1 != 0
		}
		if onBatch != nil {
			if err := onBatch(v.batches, total); err != nil {
				return v, err
			}
		}
	}
	e.impl.ClearLaneFaults()
	return v, nil
}

// validateCone scores one armed batch by replaying only its cells' fanout
// cone. The cone's boundary nets and the primary outputs outside it carry
// the unrepaired implementation's values in every lane, so they are read
// from the implementation memo, window by window, extending it where a
// batch outlives its prefix. An outside output that diverges from the
// golden stream kills every lane at that step, exactly as the whole-
// program replay would; the cone's own outputs are compared lane by lane.
// It returns the steps replayed and counts one implementation-oracle hit
// or miss.
func (e *Engine) validateCone(gt [][]uint64, st *stimulus, cone *sim.Cone, masks []uint64) (replayed int, err error) {
	nl := e.impl.Netlist()
	bnd := cone.Boundary()
	names := make([]string, len(bnd), len(bnd)+len(e.poNames))
	for i, id := range bnd {
		names[i] = nl.NetName(id)
	}
	// Golden index of each cone trace column (-1: an implementation-only
	// output), and the golden outputs the cone does not drive.
	inside := make([]int, len(cone.POs()))
	for k := range inside {
		inside[k] = -1
	}
	var outside []int
	for po, col := range e.iCols {
		if k := slices.Index(cone.POs(), col); k >= 0 {
			inside[k] = po
		} else {
			outside = append(outside, po)
			names = append(names, e.poNames[po])
		}
	}
	ent := e.implEntry(st)
	cols, rep, err := e.implStreams(ent, st, names)
	if err != nil {
		return 0, err
	}
	hit := !rep
	defer func() { e.countImpl(hit) }()
	W := e.impl.Width()
	e.impl.Reset()
	for lo := 0; lo < st.steps; lo += replayWindow {
		hi := min(lo+replayWindow, st.steps)
		rep, err := e.extendImpl(ent, st, hi)
		if err != nil {
			return replayed, err
		}
		hit = hit && !rep
		w, mask := lo>>6, windowMask(hi-lo)
		for k, po := range outside {
			if (cols[len(bnd)+k][w]^gt[po][w])&mask != 0 {
				clear(masks)
				return replayed, nil
			}
		}
		e.impl.ResumeConeInto(&e.tr, cone, cols[:len(bnd)], lo, hi-lo)
		replayed += hi - lo
		anyLive := true
		for c := 0; c < hi-lo && anyLive; c++ {
			anyLive = false
			for k, po := range inside {
				if po < 0 {
					continue
				}
				g := goldenBit(gt[po], lo+c)
				for x := 0; x < W; x++ {
					masks[x] &^= e.tr.OutW(c, k, x) ^ g
				}
			}
			for x := 0; x < W; x++ {
				anyLive = anyLive || masks[x] != 0
			}
		}
		if !anyLive {
			break
		}
	}
	return replayed, nil
}

// SerialValidate computes the same per-candidate outcomes one mutant at
// a time — per candidate: clone the implementation netlist, apply the
// repair, recompile, replay. It is the differential oracle for Validate
// (surviving sets must be identical) and the baseline the lane-parallel
// candidate-validation speedup is measured against
// (TestValidateMatchesSerial*, TestValidateConeMatchesFullAndSerial).
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
// observePatterns extra broadcast patterns), validate them
// lane-parallel against the golden oracle on detStim, re-validate the
// survivors on an independent verification stimulus, and rank what
// remains by minimality. detStim must be broadcast scalar stimulus that
// excites the error — Search returns ErrNotExcited otherwise, and the
// caller falls back to its probe- or golden-based flow.
// Only tests call this raw-stimulus entry (the product runs SearchBlocks):
// the differential oracle the pinned search outcomes are recorded through
// (TestSearchOutcomesPinned*, TestBroadcastGuard).
func (e *Engine) Search(suspects []string, detStim [][]uint64, cfg Config) (*Outcome, error) {
	det, err := e.named(detStim)
	if err != nil {
		return nil, err
	}
	return e.search(suspects, det, cfg)
}

// SearchBlocks is Search on the detection stimulus
// BlockStimulus(NumPIs(), words, cycles, seed), named by those
// parameters: it is drawn once per parameter set through the golden
// oracle's store, and its rows are built only if a replay needs them.
func (e *Engine) SearchBlocks(suspects []string, words, cycles int, seed int64, cfg Config) (*Outcome, error) {
	return e.search(suspects, e.derived("b", words*64, seed, cycles, blockPatterns), cfg)
}

// BlockStimulus is the broadcast scalar expansion of words random
// 64-pattern blocks over npi inputs drawn from seed, each pattern held
// cycles steps: the detection family the fault dictionary observes under
// (debug.DictStimulus) and SearchBlocks validates on.
func BlockStimulus(npi, words, cycles int, seed int64) [][]uint64 {
	return testgen.Repeat(blockPatterns(npi, words*64, seed), cycles)
}

// blockPatterns draws BlockStimulus's patterns (a multiple of 64).
func blockPatterns(npi, patterns int, seed int64) [][]uint64 {
	return testgen.TransposeToScalar(testgen.RandomBlocks(npi, patterns/64, seed))
}

func (e *Engine) search(suspects []string, det *stimulus, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()

	// The unrepaired implementation must fail the detection stimulus, or
	// survival means nothing. The excitation replay records the suspects'
	// cone boundary for the validation passes. The detection lookups of
	// both oracles are reported on the first detection-validation span.
	hits, misses := e.oracleHits, e.oracleMisses
	gt, err := e.goldenStreams(det, e.poNames)
	if err != nil {
		return nil, err
	}
	detHits, detMisses := e.oracleHits-hits, e.oracleMisses-misses
	boundary, err := e.suspectBoundary(suspects)
	if err != nil {
		return nil, err
	}
	ihits, imisses := e.implHits, e.implMisses
	excited, err := e.excited(det, gt, boundary)
	if err != nil {
		return nil, err
	}
	if !excited {
		return nil, ErrNotExcited
	}
	detIHits, detIMisses := e.implHits-ihits, e.implMisses-imisses

	observe := concat(det, e.derived("s", observePatterns, cfg.Seed+obsSeedOffset, cfg.VerifyCycles, testgen.ScalarBlocks))
	out := &Outcome{}
	for round := 0; round < refineRounds; round++ {
		esp := cfg.Obs.Start(obs.StageRepairEnumerate)
		hits, misses = e.oracleHits, e.oracleMisses
		cands, err := e.enumerate(suspects, observe)
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
		ihits, imisses = e.implHits, e.implMisses
		v, err := e.validate(gt, cands, det, cfg.OnBatch, replayAuto)
		v.addAttrs(vsp, len(cands))
		addOracleAttrs(vsp, detHits, detMisses)
		addImplAttrs(vsp, detIHits+e.implHits-ihits, detIMisses+e.implMisses-imisses)
		detHits, detMisses, detIHits, detIMisses = 0, 0, 0, 0
		vsp.End()
		if err != nil {
			return nil, err
		}
		out.Batches += v.batches
		var survivors []Candidate
		for i, ok := range v.alive {
			if ok {
				survivors = append(survivors, cands[i])
			}
		}
		out.Survivors = len(survivors)
		if len(survivors) == 0 {
			return out, nil
		}

		verify := e.derived("s", verifyPatterns,
			cfg.Seed+verifySeedOffset+int64(round)*verifySeedStride, cfg.VerifyCycles, testgen.ScalarBlocks)
		wsp := cfg.Obs.Start(obs.StageRepairValidate)
		hits, misses = e.oracleHits, e.oracleMisses
		ihits, imisses = e.implHits, e.implMisses
		vt, err := e.goldenStreams(verify, e.poNames)
		if err != nil {
			wsp.End()
			return nil, err
		}
		v, err = e.validate(vt, survivors, verify, cfg.OnBatch, replayAuto)
		v.addAttrs(wsp, len(survivors))
		addOracleAttrs(wsp, e.oracleHits-hits, e.oracleMisses-misses)
		addImplAttrs(wsp, e.implHits-ihits, e.implMisses-imisses)
		wsp.End()
		if err != nil {
			return nil, err
		}
		out.Batches += v.batches
		out.Ranked = out.Ranked[:0]
		for i, ok := range v.alive {
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
		observe = concat(observe, verify)
	}
	return out, nil
}

// addImplAttrs records implementation-memo lookups on a span: hits read
// every stream they needed from memo, misses replayed the unrepaired
// implementation to record or extend one.
func addImplAttrs(sp *obs.Span, hits, misses int64) {
	sp.Add("impl-oracle-hit", hits)
	sp.Add("impl-oracle-miss", misses)
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

package debug

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"fpgadbg/internal/core"
	"fpgadbg/internal/eco"
	"fpgadbg/internal/instr"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/overlay"
	"fpgadbg/internal/repair"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/testgen"
)

// Event is one progress notification emitted while a session works; the
// campaign service streams these to clients as they happen.
type Event struct {
	// Stage is "detect", "localize", "repair", "correct" or "loop".
	Stage string
	// Round is the localization round or loop iteration (1-based), 0
	// where it does not apply.
	Round int
	Msg   string
}

// TraceStore caches golden reference traces across sessions. Keys are
// content addresses (golden fingerprint + stimulus hash), so any campaign
// on the same golden design replays the same detection stimulus for free.
// Stored traces are shared — callers must treat them as read-only.
type TraceStore interface {
	GetTrace(key string) (*sim.Trace, bool)
	PutTrace(key string, tr *sim.Trace)
}

// Session is one debugging campaign.
type Session struct {
	Golden *netlist.Netlist
	Layout *core.Layout
	Seed   int64

	// Ctx, when set, cancels the campaign between replay and CAD steps;
	// long loops return Ctx.Err() wrapped. Nil means never canceled.
	Ctx context.Context
	// Progress, when set, receives an Event at each stage and round.
	// Called synchronously from the session's goroutine.
	Progress func(Event)
	// Traces, when set, memoizes probe-free golden reference traces by
	// content address, so repeated detections of the same golden design
	// (within this session or across concurrent sessions) replay once.
	Traces TraceStore
	// Oracle, when set, memoizes the golden model's broadcast replays for
	// the repair search, bit-packed per stimulus; the campaign service
	// backs it with its artifact cache so every campaign on a golden
	// design shares one. Nil gives the session a private oracle on its
	// first repair.
	Oracle *repair.Oracle
	// Dict, when set, is the golden design's fault dictionary: RunLoopCore
	// and LocalizeDict consult it before inserting any observation logic,
	// and only fall back to probe rounds when it is ambiguous (see
	// dictionary.go). Dictionaries are immutable and shareable.
	Dict *FaultDict
	// DictMaxSuspects bounds the matched-class size LocalizeDict accepts
	// without probes (0 = DefaultDictMaxSuspects).
	DictMaxSuspects int
	// SimWidth is the lane-vector width W (sim.CompileWidth) for the
	// machines this session compiles as lane-parallel hosts — today the
	// repair candidate program, whose validation retires 64·W candidates
	// per replay. Detection and observation replays read lane word 0 of
	// broadcast stimulus and always run at width 1. 0 means width 1.
	SimWidth int
	// Obs, when set, is the per-campaign trace this session's stages
	// (detect, compile, goldentrace, localize-*, repair-*, eco-verify)
	// record spans on. The campaign service also attaches it to the
	// Layout (core.Layout.SetObs) so the physical place/route/sta work
	// under each ApplyDelta lands in the same trace. Nil disables
	// telemetry at the cost of one pointer test per stage.
	Obs *obs.Trace
	// Overlay, when set, is this campaign's tap selector on the
	// layout's pre-reserved debug overlay: a probe round whose targets
	// are all within overlay reach becomes a pure configuration switch
	// (overlay.Selector.Select) with zero CAD effort; rounds with any
	// unreachable target fall back to the MISR-insertion path and are
	// counted in OverlayFallbacks.
	Overlay *overlay.Selector
	// Causal enables the causal-chain localizer: before the first probe
	// round, the failing trace is replayed with every suspect output
	// observed, and suspects are ranked by causal distance from the
	// first mismatching cycle (causalRank); pickProbes then prefers
	// low-distance suspects, cutting probe rounds on sequential
	// designs. Off by default so legacy campaigns keep their exact
	// round counts and digests.
	Causal bool
	// OverlaySwitches counts probe batches served by pure overlay
	// configuration switches; OverlayFallbacks counts rounds that had
	// to fall back to MISR insertion despite an attached Overlay.
	OverlaySwitches  int
	OverlayFallbacks int

	// TileEffort accumulates all tile-local CAD work spent by this
	// session (observation inserts + corrections).
	TileEffort core.Effort
	// Probes counts physically inserted observation stages.
	Probes int

	misrSeq int
	// golden is the compiled golden machine, reused across replays (the
	// golden netlist never mutates).
	golden *sim.Machine
	// goldenFP caches the golden netlist's fingerprint for trace keys.
	goldenFP string
	// impl is the compiled implementation program of the layout netlist
	// as it stood at Version implVer; every replay forks it, and it is
	// recompiled only once the netlist has changed (an ECO commit, a MISR
	// insertion, a rollback). implFP is the content fingerprint of the
	// netlist at Version fpVer, keying the repair search's implementation
	// memo; fpNL and implNL guard against a swapped Layout.NL.
	impl         *sim.Machine
	implNL, fpNL *netlist.Netlist
	implVer      uint64
	implFP       string
	fpVer        uint64
}

// NewSession pairs a golden netlist with an implementation layout. The
// implementation must have been derived from the golden netlist (same
// cell and net names), which is exactly the emulation scenario: the
// design under test is the mapped design plus injected/introduced errors.
func NewSession(golden *netlist.Netlist, layout *core.Layout, seed int64) (*Session, error) {
	if golden == nil || layout == nil {
		return nil, fmt.Errorf("debug: nil golden or layout")
	}
	return &Session{Golden: golden, Layout: layout, Seed: seed}, nil
}

// SetGoldenMachine supplies a pre-compiled machine for the golden design —
// typically a Fork of a cached compile — instead of compiling one in the
// first comparison. The machine must have been compiled from (a clone of)
// s.Golden and must be private to this session.
func (s *Session) SetGoldenMachine(m *sim.Machine) { s.golden = m }

// SetGoldenFingerprint supplies a precomputed content fingerprint of the
// golden netlist for trace-cache keys, saving the per-session hash when
// the caller (the campaign service) already has it.
func (s *Session) SetGoldenFingerprint(fp string) { s.goldenFP = fp }

// SetImplFingerprint supplies a content fingerprint of the layout
// netlist as it stands now, keying the repair search's implementation
// memo until the netlist first changes; later states are hashed when a
// search needs them. Two netlists may share a fingerprint only if they
// behave identically.
func (s *Session) SetImplFingerprint(fp string) {
	s.implFP, s.fpNL, s.fpVer = fp, s.Layout.NL, s.Layout.NL.Version()
}

// implFingerprint returns the content fingerprint of the layout netlist's
// current state, hashing it once per state.
func (s *Session) implFingerprint() string {
	nl := s.Layout.NL
	if s.implFP == "" || s.fpNL != nl || s.fpVer != nl.Version() {
		s.SetImplFingerprint(nl.Fingerprint())
	}
	return s.implFP
}

// implProgram returns the compiled implementation program of the layout
// netlist's current state, compiling it (a compile span) only when the
// netlist changed since the last call. Callers fork it; forks must not
// outlive the next netlist change.
func (s *Session) implProgram() (*sim.Machine, error) {
	nl := s.Layout.NL
	if s.impl == nil || s.implNL != nl || s.implVer != nl.Version() {
		csp := s.Obs.Start(obs.StageCompile)
		m, err := sim.Compile(nl)
		csp.End()
		if err != nil {
			return nil, fmt.Errorf("debug: impl: %w", err)
		}
		s.impl, s.implNL, s.implVer = m, nl, nl.Version()
	}
	return s.impl, nil
}

// implMachine returns a private width-1 fork of the implementation
// program bound to the golden primary-input order, with
// implementation-only inputs (any the golden design lacks) pinned to zero
// through the execution core's explicit override list.
func (s *Session) implMachine() (*sim.Machine, error) {
	prog, err := s.implProgram()
	if err != nil {
		return nil, err
	}
	mi := prog.Fork()
	piNames := s.Golden.SortedPINames()
	if err := mi.BindNames(piNames); err != nil {
		return nil, fmt.Errorf("debug: impl: %w", err)
	}
	goldenPI := make(map[string]bool, len(piNames))
	for _, n := range piNames {
		goldenPI[n] = true
	}
	nl := s.Layout.NL
	for _, n := range nl.SortedPINames() {
		if goldenPI[n] {
			continue
		}
		if id, ok := nl.NetByName(n); ok {
			if err := mi.SetOverride(id, 0); err != nil {
				return nil, fmt.Errorf("debug: impl: %w", err)
			}
		}
	}
	return mi, nil
}

// interrupted returns the context error once the session's context is
// canceled; checked between replay and CAD steps.
func (s *Session) interrupted() error {
	if s.Ctx == nil {
		return nil
	}
	if err := s.Ctx.Err(); err != nil {
		return fmt.Errorf("debug: campaign canceled: %w", err)
	}
	return nil
}

// emit delivers one progress event if a listener is attached.
func (s *Session) emit(stage string, round int, format string, args ...any) {
	if s.Progress != nil {
		s.Progress(Event{Stage: stage, Round: round, Msg: fmt.Sprintf(format, args...)})
	}
}

// goldenTraceKey content-addresses a probe-free golden replay: the golden
// design's fingerprint plus a hash of the stimulus sequence.
func (s *Session) goldenTraceKey(seq [][]uint64) string {
	if s.goldenFP == "" {
		s.goldenFP = s.Golden.Fingerprint()
	}
	h := fnv.New64a()
	var b [8]byte
	wr := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	wr(uint64(len(seq)))
	for _, row := range seq {
		wr(uint64(len(row)))
		for _, w := range row {
			wr(w)
		}
	}
	return fmt.Sprintf("trace/%s/%016x", s.goldenFP, h.Sum64())
}

// Detection is the outcome of one detect step.
type Detection struct {
	Failed         bool
	FailingOutputs []string
	// PIs is the stimulus column order: the golden design's sorted
	// primary-input names, resolved to machine slots at replay time.
	PIs []string
	// Stimulus is the clocked ID-indexed input sequence that exposed the
	// failure (Stimulus[c][j] drives PIs[j] with 64 parallel patterns),
	// replayed during localization.
	Stimulus [][]uint64
	// Words and Cycles record the detection parameters, so downstream
	// steps (dictionary observation, repair-candidate validation,
	// re-detection) can regenerate the exact stimulus family.
	Words  int
	Cycles int
}

// Detect runs words blocks of random stimulus for cycles clock cycles
// each and compares the golden outputs against the emulated
// implementation. Implementation-only inputs (any the golden design
// lacks) are held at zero through the machine's override list;
// implementation-only outputs are ignored.
func (s *Session) Detect(words, cycles int) (*Detection, error) {
	if words < 1 || cycles < 1 {
		return nil, fmt.Errorf("debug: detection needs words and cycles >= 1 (got %d, %d)", words, cycles)
	}
	if err := s.interrupted(); err != nil {
		return nil, err
	}
	sp := s.Obs.Start(obs.StageDetect)
	defer sp.End()
	goldenPIs := s.Golden.SortedPINames()
	blocks := testgen.RandomBlocks(len(goldenPIs), words, s.Seed)
	seq := testgen.Repeat(blocks, cycles)
	det := &Detection{PIs: goldenPIs, Stimulus: seq, Words: words, Cycles: cycles}
	mismatch, _, err := s.compare(seq, nil)
	if err != nil {
		return nil, err
	}
	det.Failed = len(mismatch) > 0
	det.FailingOutputs = mismatch
	return det, nil
}

// goldenMachine compiles the golden design once per session.
func (s *Session) goldenMachine() (*sim.Machine, error) {
	if s.golden == nil {
		mg, err := sim.Compile(s.Golden)
		if err != nil {
			return nil, fmt.Errorf("debug: golden: %w", err)
		}
		s.golden = mg
	}
	return s.golden, nil
}

// compare replays an ID-indexed stimulus sequence (columns in golden
// sorted-PI order) on golden and implementation through the trace API,
// returning the golden POs whose streams differ. probeNames optionally
// lists internal nets to sample each cycle; differ[k] reports whether
// probe k's streams diverged (probes missing from either design are
// skipped and report false).
func (s *Session) compare(seq [][]uint64, probeNames []string) (badPOs []string, differ []bool, err error) {
	if err := s.interrupted(); err != nil {
		return nil, nil, err
	}
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
	poNames := s.Golden.SortedPONames()
	gCols, err := mg.POCols(poNames)
	if err != nil {
		return nil, nil, fmt.Errorf("debug: golden: %w", err)
	}
	iCols, err := mi.POCols(poNames)
	if err != nil {
		return nil, nil, fmt.Errorf("debug: impl: %w", err)
	}
	// Probes present in both designs are sampled into the traces; the
	// rest (e.g. MISR state nets that exist only in the implementation)
	// are skipped, matching the paper's golden-vs-observed comparison.
	differ = make([]bool, len(probeNames))
	probeCol := make([]int, len(probeNames))
	var gProbes, iProbes []netlist.NetID
	for k, name := range probeNames {
		probeCol[k] = -1
		gid, gok := s.Golden.NetByName(name)
		iid, iok := s.Layout.NL.NetByName(name)
		if gok && iok {
			probeCol[k] = len(gProbes)
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
	// Probe-free golden replays depend only on (golden design, stimulus)
	// and are memoized by content address when a TraceStore is attached;
	// cached traces are shared and read-only.
	gsp := s.Obs.Start(obs.StageGoldenTrace)
	var tg *sim.Trace
	if s.Traces != nil && len(gProbes) == 0 {
		key := s.goldenTraceKey(seq)
		if hit, ok := s.Traces.GetTrace(key); ok && hit.Cycles == len(seq) && hit.NumPOs == len(mg.PONames()) {
			tg = hit
			gsp.Add("trace-cache-hit", 1)
		} else {
			tg = mg.RunTrace(seq)
			s.Traces.PutTrace(key, tg)
			gsp.Add("trace-cache-miss", 1)
		}
	} else {
		tg = mg.RunTrace(seq)
	}
	gsp.End()
	ti := mi.RunTrace(seq)
	bad := make(map[string]bool)
	for c := 0; c < len(seq); c++ {
		for i, name := range poNames {
			if tg.Out(c, gCols[i]) != ti.Out(c, iCols[i]) {
				bad[name] = true
			}
		}
		for k, col := range probeCol {
			if col >= 0 && tg.ProbeVal(c, col) != ti.ProbeVal(c, col) {
				differ[k] = true
			}
		}
	}
	badPOs = make([]string, 0, len(bad))
	for name := range bad {
		badPOs = append(badPOs, name)
	}
	sort.Strings(badPOs)
	return badPOs, differ, nil
}

// Diagnosis is the outcome of localization.
type Diagnosis struct {
	// Suspects are implementation cells that may host the error, sound
	// with respect to the single-error model (the true site is always
	// included).
	Suspects []string
	// Tiles lists the physical tiles holding the suspects.
	Tiles []int
	// Rounds is the number of observation-insertion iterations performed.
	Rounds int
	// ConvergeRound is the 1-based round after which the suspect set
	// last shrank — the rounds that actually contributed to the verdict.
	// 0 means the initial cone was already final.
	ConvergeRound int
	// Probes counts the observation stages inserted during this
	// diagnosis.
	Probes int
	// Effort is the tile-local CAD effort spent inserting them.
	Effort core.Effort
	// Dict reports that the fault dictionary resolved the suspect without
	// any probe round (Rounds and Probes are zero, Effort empty).
	Dict bool
}

// Localize narrows the failure of det to a set of suspect cells by
// iteratively inserting observation logic (each insertion is a real
// tile-local physical change) and comparing observed streams against the
// golden model. maxRounds bounds the insertions; probesPerRound nets are
// observed each round.
func (s *Session) Localize(det *Detection, maxRounds, probesPerRound int) (*Diagnosis, error) {
	if !det.Failed {
		return nil, fmt.Errorf("debug: nothing to localize: detection passed")
	}
	if probesPerRound < 1 {
		probesPerRound = 4
	}
	nl := s.Layout.NL
	// Initial suspect cone: everything feeding the failing outputs
	// (through registers), restricted to cells the golden design also has
	// — inserted test logic can't be the design error.
	var roots []netlist.NetID
	for _, name := range det.FailingOutputs {
		if id, ok := nl.NetByName(name); ok {
			roots = append(roots, id)
		}
	}
	cone := nl.TransitiveFanin(roots, true)
	suspects := make(map[string]bool)
	for id := range cone {
		name := nl.CellName(id)
		if _, inGolden := s.Golden.CellByName(name); inGolden {
			suspects[name] = true
		}
	}
	diag := &Diagnosis{}
	probed := make(map[string]bool)
	// Causal-chain pre-ranking: replay the failing trace once with every
	// suspect output observed and rank suspects by causal distance from
	// the first mismatching cycle, so pickProbes starts at the likely
	// origin instead of bisecting blind.
	var rank map[string]int
	if s.Causal {
		var clean map[string]bool
		var err error
		rank, clean, err = s.causalRank(det, suspects)
		if err != nil {
			return nil, err
		}
		// The observe-everything replay soundly exonerates suspects whose
		// output never diverged (see causalRank); keep at least one
		// suspect as a backstop against a degenerate all-clean replay.
		if len(clean) > 0 && len(clean) < len(suspects) {
			for name := range clean {
				delete(suspects, name)
			}
			s.emit("localize", 0, "causal replay exonerated %d cells, %d suspects remain", len(clean), len(suspects))
		}
	}
	lsp := s.Obs.Start(obs.StageLocalizeProbe)
	defer func() {
		lsp.Add("probe-rounds", int64(diag.Rounds))
		lsp.Add("probes-inserted", int64(diag.Probes))
		lsp.End()
	}()
	s.emit("localize", 0, "initial suspect cone: %d cells", len(suspects))
	for round := 0; round < maxRounds && len(suspects) > 1; round++ {
		if err := s.interrupted(); err != nil {
			return nil, err
		}
		targets := s.pickProbes(suspects, probed, probesPerRound, rank)
		if len(targets) == 0 {
			break
		}
		diag.Rounds++
		mismatched, eff, err := s.observeRound(det, targets)
		if err != nil {
			return nil, err
		}
		diag.Effort.Add(eff)
		s.TileEffort.Add(eff)
		diag.Probes += len(targets)
		s.Probes += len(targets)
		for _, net := range targets {
			probed[nl.NetName(net)] = true
		}
		// Single-error reasoning: the error site lies in the fan-in cone
		// of every mismatched observation. Intersect.
		before := len(suspects)
		for _, net := range mismatched {
			sub := nl.TransitiveFanin([]netlist.NetID{net}, true)
			keep := make(map[string]bool, len(sub))
			for id := range sub {
				name := nl.CellName(id)
				if suspects[name] {
					keep[name] = true
				}
			}
			if len(keep) > 0 {
				suspects = keep
			}
		}
		if len(suspects) < before {
			diag.ConvergeRound = diag.Rounds
		}
		s.emit("localize", diag.Rounds, "%d observation stages in, %d suspects remain", diag.Probes, len(suspects))
	}
	for name := range suspects {
		diag.Suspects = append(diag.Suspects, name)
	}
	s.fillTiles(diag)
	return diag, nil
}

// observeRound observes one round's target nets and returns those whose
// value streams diverge from the golden model — the single probe-round
// body shared by every localization path (Localize, and through it
// LocalizeDict / RunLoop / RunLoopCore), so the overlay fast path is
// wired exactly once.
//
// With an Overlay attached and every target within reach, the round is
// zero-CAD: the request is partitioned into conflict-free
// time-multiplex batches, each batch is a pure configuration switch
// (overlay.Selector.Select — journaled, rollback-safe, no place/route/
// STA) followed by a replay of the failing stimulus. Otherwise the
// round takes the CAD path: one MISR rides one ApplyDelta transaction,
// opened here so a failed insertion rolls the layout back to the round
// boundary instead of leaving it half-mutated.
func (s *Session) observeRound(det *Detection, targets []netlist.NetID) ([]netlist.NetID, core.Effort, error) {
	nl := s.Layout.NL
	if s.Overlay != nil {
		names := make([]string, len(targets))
		reachable := true
		for i, net := range targets {
			names[i] = nl.NetName(net)
			if !s.Overlay.Reach(names[i]) {
				reachable = false
			}
		}
		if reachable {
			byName := make(map[string]netlist.NetID, len(targets))
			for i, net := range targets {
				byName[names[i]] = net
			}
			batches, _ := s.Overlay.Partition(names)
			var mismatched []netlist.NetID
			for _, batch := range batches {
				sp := s.Obs.Start(obs.StageProbeSwitch)
				err := s.Overlay.Select(batch)
				sp.Add("taps-selected", int64(len(batch)))
				sp.End()
				if err != nil {
					return nil, core.Effort{}, err
				}
				s.OverlaySwitches++
				ids := make([]netlist.NetID, len(batch))
				for i, name := range batch {
					ids[i] = byName[name]
				}
				mm, err := s.compareStreams(det.Stimulus, ids)
				if err != nil {
					return nil, core.Effort{}, err
				}
				mismatched = append(mismatched, mm...)
			}
			return mismatched, core.Effort{}, nil
		}
		s.OverlayFallbacks++
	}
	cp := s.Layout.Checkpoint()
	s.misrSeq++
	misr, err := instr.InsertMISR(nl, fmt.Sprintf("misr%d", s.misrSeq), targets)
	if err != nil {
		if rerr := s.Layout.Rollback(cp); rerr != nil {
			return nil, core.Effort{}, fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		return nil, core.Effort{}, err
	}
	rep, err := s.Layout.ApplyDelta(core.Delta{Added: misr.Cells})
	if err != nil {
		if rerr := s.Layout.Rollback(cp); rerr != nil {
			return nil, core.Effort{}, fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		return nil, core.Effort{}, err
	}
	s.Layout.Commit(cp)
	mismatched, err := s.compareStreams(det.Stimulus, targets)
	if err != nil {
		return nil, core.Effort{}, err
	}
	return mismatched, rep.Effort, nil
}

// fillTiles resolves the physical tiles hosting the diagnosis suspects.
func (s *Session) fillTiles(diag *Diagnosis) {
	sort.Strings(diag.Suspects)
	tiles := make(map[int]bool)
	for _, name := range diag.Suspects {
		if id, ok := s.Layout.NL.CellByName(name); ok {
			if clb, ok := s.Layout.Packed.CellCLB[id]; ok {
				tiles[s.Layout.TileOf(s.Layout.CLBLoc[clb])] = true
			}
		}
	}
	diag.Tiles = diag.Tiles[:0]
	for t := range tiles {
		diag.Tiles = append(diag.Tiles, t)
	}
	sort.Ints(diag.Tiles)
}

// pickProbes chooses observation targets whose suspect-restricted fan-in
// cones best bisect the suspect set. rank, when non-nil, is the causal
// distance of each suspect from the first observed mismatch
// (causalRank): causally closer suspects are probed first, and the
// bisection score only breaks ties. The ordering is deterministic
// regardless of map iteration (final tie-break on net ID).
func (s *Session) pickProbes(suspects map[string]bool, probed map[string]bool, k int, rank map[string]int) []netlist.NetID {
	nl := s.Layout.NL
	const unranked = int(^uint(0) >> 1)
	type cand struct {
		net   netlist.NetID
		dist  int // causal distance (unranked sorts last)
		score int // |cone∩suspects| distance from |suspects|/2
	}
	half := len(suspects) / 2
	var cands []cand
	for name := range suspects {
		id, ok := nl.CellByName(name)
		if !ok {
			continue
		}
		out := nl.Cells[id].Out
		if probed[nl.NetName(out)] {
			continue
		}
		sub := nl.TransitiveFanin([]netlist.NetID{out}, true)
		n := 0
		for cid := range sub {
			if suspects[nl.CellName(cid)] {
				n++
			}
		}
		n++ // the driver itself is in its own observation cone
		d := n - half
		if d < 0 {
			d = -d
		}
		dist := unranked
		if rank != nil {
			if r, ok := rank[name]; ok {
				dist = r
			}
		}
		cands = append(cands, cand{net: out, dist: dist, score: d})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		return cands[i].net < cands[j].net
	})
	var out []netlist.NetID
	for _, c := range cands {
		out = append(out, c.net)
		if len(out) >= k {
			break
		}
	}
	return out
}

// compareStreams replays stimulus and returns the target nets whose value
// streams differ between golden and implementation. Golden nets are
// matched by name.
func (s *Session) compareStreams(seq [][]uint64, targets []netlist.NetID) ([]netlist.NetID, error) {
	nl := s.Layout.NL
	names := make([]string, len(targets))
	for i, net := range targets {
		names[i] = nl.NetName(net)
	}
	_, differ, err := s.compare(seq, names)
	if err != nil {
		return nil, err
	}
	var out []netlist.NetID
	for i, d := range differ {
		if d {
			out = append(out, targets[i])
		}
	}
	return out, nil
}

// Correction is the outcome of one correct step — a candidate-search
// repair (RepairWith) or a golden-copy restoration (correctFromGolden).
type Correction struct {
	// Fixed lists the repaired cell names.
	Fixed []string
	// Report is the tile-local physical update.
	Report *core.ChangeReport
	// Verified is true when detection passes after the repair (and, for
	// candidate-search repairs, the ECO sign-off replay too).
	Verified bool

	// Repaired is true when the fix came from the repair-candidate
	// search, false for a golden-copy restoration.
	Repaired bool
	// RepairKind names the winning candidate shape ("bit-flip",
	// "pin-swap", "resynth"); empty for golden-copy corrections.
	RepairKind string
	// Candidates, Survivors and Batches summarize the search: how many
	// corrections were enumerated, how many explained the whole detection
	// stimulus, and how many Lanes()-candidate lane batches were replayed.
	Candidates int
	Survivors  int
	Batches    int
	// ECOVerified reports the tile-local ECO sign-off: after the repair,
	// an independent replay against the golden model found no divergence.
	ECOVerified bool
}

// correctFromGolden repairs the implementation from the golden model:
// every suspect cell that differs from its golden counterpart (function
// or wiring) is restored, the delta goes through ApplyDelta — a
// configuration-only update when every restored pin's net already reaches
// the cell's CLB, a tile-local re-place-and-route otherwise — and
// detection re-runs to verify. If no suspect
// differs, the full diff is consulted. This is diagnosis by answer key —
// it reads the golden netlist's structure — and is kept as the fallback
// for errors the candidate search (RepairWith) cannot explain; CorrectAuto
// is its only caller.
func (s *Session) correctFromGolden(diag *Diagnosis, det *Detection) (*Correction, error) {
	if err := s.interrupted(); err != nil {
		return nil, err
	}
	nl := s.Layout.NL
	changes := eco.Diff(s.Golden, nl)
	differing := make(map[string]string) // name -> kind
	for _, ch := range changes.Cells {
		if ch.Kind != "added" && ch.Kind != "removed" {
			differing[ch.Name] = ch.Kind
		}
	}
	var toFix []string
	for _, name := range diag.Suspects {
		if _, ok := differing[name]; ok {
			toFix = append(toFix, name)
		}
	}
	if len(toFix) == 0 {
		// Diagnosis narrowed to cells that match the golden model —
		// repair everything that differs instead.
		for name := range differing {
			toFix = append(toFix, name)
		}
		sort.Strings(toFix)
	}
	if len(toFix) == 0 {
		return nil, fmt.Errorf("debug: nothing differs from the golden model")
	}
	// The whole correction — netlist restoration plus the physical
	// update — is one transaction; any failure reverts to the pre-repair
	// layout.
	cp := s.Layout.Checkpoint()
	rollback := func(err error) error {
		if rerr := s.Layout.Rollback(cp); rerr != nil {
			return fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		return err
	}
	var modified []netlist.CellID
	for _, name := range toFix {
		iid, ok := nl.CellByName(name)
		if !ok {
			return nil, rollback(fmt.Errorf("debug: suspect %q vanished", name))
		}
		gid, ok := s.Golden.CellByName(name)
		if !ok {
			return nil, rollback(fmt.Errorf("debug: %q missing from golden", name))
		}
		gc := &s.Golden.Cells[gid]
		ic := &nl.Cells[iid]
		if ic.Kind == netlist.KindLUT {
			if err := nl.SetFunc(iid, gc.Func); err != nil {
				return nil, rollback(err)
			}
		}
		if ic.Kind == netlist.KindDFF {
			if err := nl.SetInit(iid, gc.Init); err != nil {
				return nil, rollback(err)
			}
		}
		for pin := range gc.Fanin {
			wantName := s.Golden.NetName(gc.Fanin[pin])
			want, ok := nl.NetByName(wantName)
			if !ok {
				return nil, rollback(fmt.Errorf("debug: net %q missing from implementation", wantName))
			}
			if ic.Fanin[pin] != want {
				if err := nl.SetFanin(iid, pin, want); err != nil {
					return nil, rollback(err)
				}
			}
		}
		modified = append(modified, iid)
	}
	s.emit("correct", 0, "repairing %d cell(s) from the golden model", len(toFix))
	rep, err := s.Layout.ApplyDelta(core.Delta{Modified: modified})
	if err != nil {
		return nil, rollback(err)
	}
	s.Layout.Commit(cp)
	s.TileEffort.Add(rep.Effort)
	cor := &Correction{Fixed: toFix, Report: rep}
	redet, err := s.redetect(det)
	if err != nil {
		return nil, err
	}
	cor.Verified = !redet.Failed
	return cor, nil
}

// redetect replays the detection that exposed the failure. Older
// Detection values (built before Words/Cycles were recorded) fall back
// to one flat replay of the captured stimulus length.
func (s *Session) redetect(det *Detection) (*Detection, error) {
	if det.Words > 0 && det.Cycles > 0 {
		return s.Detect(det.Words, det.Cycles)
	}
	return s.Detect(len(det.Stimulus), 1)
}

// LoopReport summarizes a full debugging campaign.
type LoopReport struct {
	Iterations  int
	Corrections []*Correction
	Diagnoses   []*Diagnosis
	// TileEffort is the total tile-local CAD work. The non-tiled
	// comparison point, one full place-and-route, is the caller's: the
	// campaign service reports the layout's BuildEffort, and the paper's
	// tables run Layout.FullRePlaceRoute.
	TileEffort core.Effort
	Clean      bool
}

// RunLoopCore executes detect→localize→correct until the design is clean
// or maxIters is exhausted — the paper's while-loop (steps 9–22).
func (s *Session) RunLoopCore(maxIters, words, cycles, maxRounds, probesPerRound int) (*LoopReport, error) {
	rep := &LoopReport{}
	for iter := 0; iter < maxIters; iter++ {
		if err := s.interrupted(); err != nil {
			return nil, err
		}
		s.emit("detect", iter+1, "replaying %d blocks × %d cycles", words, cycles)
		det, err := s.Detect(words, cycles)
		if err != nil {
			return nil, err
		}
		if !det.Failed {
			s.emit("loop", iter+1, "detection passes — design clean")
			rep.Clean = true
			break
		}
		s.emit("detect", iter+1, "FAILED outputs %v", det.FailingOutputs)
		rep.Iterations++
		diag, err := s.LocalizeDict(det, maxRounds, probesPerRound)
		if err != nil {
			return nil, err
		}
		rep.Diagnoses = append(rep.Diagnoses, diag)
		// True correction first: search candidate repairs with the golden
		// model as a behavioural oracle only. Errors the search cannot
		// explain (no verified candidate, wiring outside the candidate
		// space, an un-excitable broadcast form) fall back to the
		// golden-copy restoration.
		cor, _, err := s.CorrectAuto(diag, det, nil)
		if err != nil {
			return nil, err
		}
		rep.Corrections = append(rep.Corrections, cor)
		s.emit("correct", iter+1, "fixed %v, verified=%v", cor.Fixed, cor.Verified)
		if cor.Verified {
			rep.Clean = true
			break
		}
	}
	rep.TileEffort = s.TileEffort
	return rep, nil
}

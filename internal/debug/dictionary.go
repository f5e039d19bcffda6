package debug

// The fault-dictionary localizer. Probe-based localization (debug.go)
// pays real physical work: every round inserts observation logic and
// re-places-and-routes the affected tiles. A fault dictionary trades a
// one-time, purely-software precomputation for probe-free diagnosis: the
// exhaustive single-fault universe of the golden design is fault-
// simulated in lane batches of 64·W mutants (internal/faults.Scan on a
// width-W program), each fault's
// PO-mismatch signature is indexed, and a failing implementation is then
// diagnosed by replaying the same broadcast stimulus once and looking its
// observed signature up in the dictionary. An exact hit that implicates a
// single cell localizes the error with zero observation stages and zero
// tile-local CAD effort; a miss or an ambiguous hit (equivalent faults on
// different cells, or an error outside the modeled universe) falls back
// to the sound probe-based rounds. See DESIGN.md §9.

import (
	"fmt"

	"fpgadbg/internal/faults"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/repair"
	"fpgadbg/internal/sim"
)

// FaultDict is a precomputed fault dictionary for one golden design under
// one scan stimulus. It is immutable after BuildFaultDict and safe to
// share across sessions (the campaign service caches one per design).
type FaultDict struct {
	// Words, Cycles and Seed pin the dictionary stimulus: the scalar
	// expansion (testgen.TransposeToScalar) of the same random blocks
	// Session.Detect replays under these parameters. Building the
	// dictionary with the session's detection parameters therefore
	// guarantees — exactly for combinational designs, empirically for
	// sequential ones — that an error detection can excite is also excited
	// during dictionary observation.
	Words  int
	Cycles int
	Seed   int64

	// Faults is the universe size; Detected how many faults the stimulus
	// excites at all (the rest are silent and undiagnosable from POs).
	Faults   int
	Detected int

	bySig map[uint64][]faults.Fault
}

// DictStimulus is the broadcast scan stimulus shared by BuildFaultDict,
// signature observation and repair-candidate validation: words random
// 64-pattern blocks transposed into 64·words scalar patterns, each held
// for cycles clock cycles. It is the one canonical recipe — anything
// classifying faults against a dictionary must use it with the
// dictionary's exact parameters, or signatures stop being comparable.
func DictStimulus(npi, words, cycles int, seed int64) [][]uint64 {
	return repair.BlockStimulus(npi, words, cycles, seed)
}

// BuildFaultDict enumerates the golden design's single-fault universe and
// fault-simulates it in Lanes()-sized batches under the dictionary
// stimulus,
// indexing every detected fault by its PO-mismatch signature. words,
// cycles and seed should match the detection parameters of the sessions
// that will consult the dictionary (see FaultDict). prog must be compiled
// from the golden netlist; it is only forked, never mutated.
func BuildFaultDict(prog *sim.Machine, words, cycles int, seed int64) (*FaultDict, error) {
	if words < 1 {
		words = 8
	}
	if cycles < 1 {
		cycles = 1
	}
	u := faults.Universe(prog.Netlist())
	stim := DictStimulus(len(prog.PIOrder()), words, cycles, seed)
	results, err := faults.ScanStim(prog, u, stim, nil)
	if err != nil {
		return nil, fmt.Errorf("debug: building fault dictionary: %w", err)
	}
	d := &FaultDict{
		Words:  words,
		Cycles: cycles,
		Seed:   seed,
		Faults: len(u),
		bySig:  make(map[uint64][]faults.Fault),
	}
	for _, r := range results {
		if !r.Detected {
			continue
		}
		d.Detected++
		d.bySig[r.Signature] = append(d.bySig[r.Signature], r.Fault)
	}
	return d, nil
}

// Match returns the faults whose mismatch signature equals the observed
// one — the dictionary's candidate set (nil when unknown).
func (d *FaultDict) Match(sig uint64) []faults.Fault { return d.bySig[sig] }

// Signatures returns the number of distinct signatures indexed.
func (d *FaultDict) Signatures() int { return len(d.bySig) }

// MemoryFootprint estimates resident bytes for the artifact cache.
func (d *FaultDict) MemoryFootprint() int64 {
	return 128 + int64(len(d.bySig))*48 + int64(d.Detected)*24
}

// DefaultDictMaxSuspects bounds how large a matched fault-equivalence
// class LocalizeDict accepts as a probe-free diagnosis.
const DefaultDictMaxSuspects = 8

// LocalizeDict diagnoses a detected failure through the session's fault
// dictionary when one is attached (Session.Dict). The observed
// PO-mismatch signature is looked up; the cells implicated by the
// matching faults become the suspect set directly — no observation logic
// is inserted, so Diagnosis.Rounds and Probes stay zero and
// Diagnosis.Dict is true. A matched class may span a few cells: faults in
// one signature class are indistinguishable from the primary outputs
// under this stimulus (typically a driver and its fanout buffer), and
// correction disambiguates them against the golden model for free. The
// probe-based Localize remains the fallback whenever the dictionary is
// not conclusive: no dictionary, the dictionary stimulus does not excite
// the error, the signature is unknown (an error outside the modeled
// universe), or the matched class is too diffuse (more than
// Session.DictMaxSuspects cells).
func (s *Session) LocalizeDict(det *Detection, maxRounds, probesPerRound int) (*Diagnosis, error) {
	if s.Dict == nil {
		return s.Localize(det, maxRounds, probesPerRound)
	}
	if !det.Failed {
		return nil, fmt.Errorf("debug: nothing to localize: detection passed")
	}
	if err := s.interrupted(); err != nil {
		return nil, err
	}
	// The dictionary consultation — observation replay plus signature
	// lookup — is one localize-dict span; a fallback to probe rounds ends
	// it before Localize opens its own localize-probe span.
	dsp := s.Obs.Start(obs.StageLocalizeDict)
	sig, excited, err := s.observeSignature()
	if err != nil {
		dsp.End()
		return nil, err
	}
	if !excited {
		dsp.Add("dict-miss", 1)
		dsp.End()
		s.emit("localize", 0, "fault dictionary: observation stimulus does not excite the error — probe rounds")
		return s.Localize(det, maxRounds, probesPerRound)
	}
	cands := s.Dict.Match(sig)
	cells := make(map[string]bool)
	for _, f := range cands {
		if name, ok := f.SuspectCell(s.Golden); ok {
			// The suspect must exist in the implementation to be repairable.
			if _, ok := s.Layout.NL.CellByName(name); ok {
				cells[name] = true
			}
		}
	}
	limit := s.DictMaxSuspects
	if limit <= 0 {
		limit = DefaultDictMaxSuspects
	}
	if len(cells) == 0 || len(cells) > limit {
		dsp.Add("dict-miss", 1)
		dsp.End()
		s.emit("localize", 0, "fault dictionary %s (%d candidate faults, %d cells) — probe rounds",
			dictMissWord(len(cands)), len(cands), len(cells))
		return s.Localize(det, maxRounds, probesPerRound)
	}
	dsp.Add("dict-hit", 1)
	dsp.Add("dict-suspects", int64(len(cells)))
	defer dsp.End()
	diag := &Diagnosis{Dict: true}
	for name := range cells {
		diag.Suspects = append(diag.Suspects, name)
	}
	s.fillTiles(diag)
	s.emit("localize", 0, "fault dictionary hit: signature %016x → %v (%d equivalent fault(s)), no probes inserted",
		sig, diag.Suspects, len(cands))
	return diag, nil
}

func dictMissWord(n int) string {
	if n == 0 {
		return "miss"
	}
	return "ambiguous"
}

// observeSignature replays the dictionary's broadcast stimulus on golden
// and implementation and hashes the PO-mismatch stream exactly as
// faults.Scan does for each lane, so the observation is directly
// comparable with dictionary entries. The golden replay is memoized in
// the session's TraceStore like every probe-free golden trace.
func (s *Session) observeSignature() (sig uint64, excited bool, err error) {
	mg, err := s.goldenMachine()
	if err != nil {
		return 0, false, err
	}
	mi, err := s.implMachine()
	if err != nil {
		return 0, false, err
	}
	piNames := s.Golden.SortedPINames()
	if err := mg.BindNames(piNames); err != nil {
		return 0, false, fmt.Errorf("debug: golden: %w", err)
	}
	// Signature PO order is the golden machine's trace column order — the
	// same convention faults.Scan uses.
	poNames := mg.PONames()
	iCols, err := mi.POCols(poNames)
	if err != nil {
		return 0, false, fmt.Errorf("debug: impl: %w", err)
	}
	stim := DictStimulus(len(piNames), s.Dict.Words, s.Dict.Cycles, s.Dict.Seed)
	gsp := s.Obs.Start(obs.StageGoldenTrace)
	var tg *sim.Trace
	if s.Traces != nil {
		key := s.goldenTraceKey(stim)
		if hit, ok := s.Traces.GetTrace(key); ok && hit.Cycles == len(stim) && hit.NumPOs == len(poNames) {
			tg = hit
			gsp.Add("trace-cache-hit", 1)
		} else {
			tg = mg.RunTrace(stim)
			s.Traces.PutTrace(key, tg)
			gsp.Add("trace-cache-miss", 1)
		}
	} else {
		tg = mg.RunTrace(stim)
	}
	gsp.End()
	ti := mi.RunTrace(stim)
	var sg faults.Signer
	sg.Reset()
	for c := 0; c < len(stim); c++ {
		for po := range poNames {
			// Broadcast stimulus keeps all lanes identical, so word
			// inequality is per-lane divergence.
			if tg.Out(c, po) != ti.Out(c, iCols[po]) {
				sg.Note(c, po)
			}
		}
	}
	r := sg.Result(faults.Fault{})
	return r.Signature, r.Detected, nil
}

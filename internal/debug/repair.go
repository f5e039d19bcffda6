package debug

// The correction step, paper-faithful edition: instead of copying the
// suspect cells' logic out of the golden netlist (correctFromGolden — an
// answer-key shortcut kept only as CorrectAuto's fallback), RepairWith
// searches the space of candidate corrections with internal/repair.
// Candidates are validated Lanes() per trace replay on the lanes of the
// shared compiled implementation program, survivors are re-verified on
// an independent stimulus, and the ranked winner is applied through the
// same tile-local ECO path every other physical change takes — core.Layout.ApplyDelta plus an ECO
// sign-off replay of the session's repaired implementation program
// against its compiled golden machine (sim.EquivalentMachines). The golden design
// is consulted only behaviourally (its primary-output streams, and the
// same internal-net stream observation localization already performs),
// through the session's golden oracle (repair.Oracle), which memoizes
// each broadcast replay; its cell structure is never read. See DESIGN.md
// §10.

import (
	"errors"
	"fmt"

	"fpgadbg/internal/core"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/repair"
	"fpgadbg/internal/sim"
)

// ecoVerifySeedOffset decorrelates the ECO sign-off replay from the
// detection stimulus.
const ecoVerifySeedOffset = 4242

// ErrRepairInconclusive marks repair failures after which NOTHING
// remains applied to the layout — an empty or unrepairable suspect set,
// a broadcast stimulus that cannot excite the error, a search with no
// verified winner, or a winner the ECO sign-off rejected (applied, then
// reverted in O(delta) through the layout transaction journal). Only
// these are safe to fall back from (correctFromGolden); any other
// RepairWith error must propagate.
var ErrRepairInconclusive = errors.New("repair search inconclusive")

// CorrectAuto is the one place holding the fallback rule: try the
// candidate-search repair, and only when the search was inconclusive —
// ErrRepairInconclusive, i.e. nothing reached the layout — restore from
// the golden copy. fellBack reports that the golden copy ran; any other
// repair error (the winner may already be applied) propagates untouched.
func (s *Session) CorrectAuto(diag *Diagnosis, det *Detection, prog *sim.Machine) (cor *Correction, fellBack bool, err error) {
	cor, err = s.RepairWith(diag, det, prog)
	if err == nil {
		return cor, false, nil
	}
	if !errors.Is(err, ErrRepairInconclusive) {
		return nil, false, err
	}
	s.emit("repair", 0, "candidate search inconclusive (%v) — golden-copy fallback", err)
	cor, err = s.correctFromGolden(diag, det)
	return cor, true, err
}

// RepairWith runs the repair-candidate search for a diagnosis and
// applies the winning correction tile-locally. prog is an optional
// pre-compiled candidate program; it must have been compiled from (a
// clone of) the session's current implementation netlist, and nil forks
// the session's implementation program at SimWidth. The campaign loop (RunLoopCore) passes
// nil; the benchmark's traced replay passes its own compiled program
// through CorrectAuto. The winner is applied inside a layout transaction:
// on success it is committed and the returned Correction carries the
// search statistics; when the independent ECO sign-off replay finds a
// divergence the repair is rolled back in O(delta) and the error wraps
// ErrRepairInconclusive. An error wrapping ErrRepairInconclusive always
// means nothing remains applied and the caller may fall back to
// correctFromGolden; any other error must not be papered over with a
// fallback.
func (s *Session) RepairWith(diag *Diagnosis, det *Detection, prog *sim.Machine) (*Correction, error) {
	if err := s.interrupted(); err != nil {
		return nil, err
	}
	if det == nil || !det.Failed {
		return nil, fmt.Errorf("debug: nothing to repair (detection passed): %w", ErrRepairInconclusive)
	}
	if len(diag.Suspects) == 0 {
		return nil, fmt.Errorf("debug: empty suspect set: %w", ErrRepairInconclusive)
	}
	mg, err := s.goldenMachine()
	if err != nil {
		return nil, err
	}
	if prog == nil {
		if prog, err = s.implProgram(); err != nil {
			return nil, err
		}
		if prog, err = prog.ForkWidth(max(s.SimWidth, 1)); err != nil {
			return nil, fmt.Errorf("debug: candidate program: %w", err)
		}
	}
	eng, err := repair.NewEngine(mg, prog)
	if err != nil {
		return nil, err
	}
	if s.Oracle == nil {
		s.Oracle = repair.NewOracle(nil, "")
	}
	eng.SetOracle(s.Oracle)
	eng.SetImplOracle(s.Oracle.ForImplementation(s.implFingerprint()))

	// Validation stimulus: the scalar expansion of the detection blocks —
	// the same broadcast family the fault dictionary observes under
	// (DictStimulus), so whatever detection excited, validation (largely)
	// excites too.
	words, cycles := det.Words, det.Cycles
	if words < 1 {
		words = 8
	}
	if cycles < 1 {
		cycles = 1
	}

	s.emit("repair", 0, "searching candidate corrections for %d suspect(s)", len(diag.Suspects))
	out, err := eng.SearchBlocks(diag.Suspects, words, cycles, s.Seed, repair.Config{
		Seed:         s.Seed,
		VerifyCycles: cycles,
		OnBatch: func(done, total int) error {
			return s.interrupted()
		},
		Obs: s.Obs,
	})
	if err != nil {
		if errors.Is(err, repair.ErrNotExcited) {
			return nil, fmt.Errorf("%w: %w", ErrRepairInconclusive, err)
		}
		return nil, err
	}
	s.emit("repair", 0, "%d candidate(s) in %d lane batch(es): %d survive detection, %d verify",
		out.Candidates, out.Batches, out.Survivors, out.Verified)
	if out.Winner == nil {
		return nil, fmt.Errorf("debug: no verified repair among %d candidate(s): %w",
			out.Candidates, ErrRepairInconclusive)
	}

	// Apply the winner through the tile-local ECO path, inside a layout
	// transaction: an ECO sign-off failure reverts the repair in O(delta)
	// so the golden-copy fallback starts from the pre-repair state.
	cp := s.Layout.Checkpoint()
	rollback := func(err error) error {
		if rerr := s.Layout.Rollback(cp); rerr != nil {
			return fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		return err
	}
	cellID, err := out.Winner.Apply(s.Layout.NL)
	if err != nil {
		return nil, rollback(err)
	}
	rep, err := s.Layout.ApplyDelta(core.Delta{Modified: []netlist.CellID{cellID}})
	if err != nil {
		return nil, rollback(err)
	}
	// The tile-local work is paid whether or not the sign-off below
	// keeps the repair; count it before the verdict.
	s.TileEffort.Add(rep.Effort)
	s.emit("repair", 0, "applied %s, tiles %v", out.Winner.Describe(), rep.AffectedTiles)

	// ECO sign-off: an independent replay against the golden model. A
	// divergence means the candidate only explained the detection
	// stimulus — revert it through the journal and report the search
	// inconclusive, so nothing of the bad repair survives.
	repaired, err := s.implProgram()
	if err != nil {
		return nil, rollback(err)
	}
	esp := s.Obs.Start(obs.StageEcoVerify)
	mm, err := sim.EquivalentMachines(mg, repaired.Fork(), words, cycles, s.Seed+ecoVerifySeedOffset)
	esp.End()
	if err != nil {
		return nil, rollback(fmt.Errorf("debug: eco verify: %w", err))
	}
	if mm != nil {
		s.emit("repair", 0, "eco sign-off failed (%v) — repair reverted", mm)
		return nil, rollback(fmt.Errorf("debug: eco sign-off rejected %s (reverted): %w",
			out.Winner.Describe(), ErrRepairInconclusive))
	}
	s.Layout.Commit(cp)

	cor := &Correction{
		Fixed:       []string{out.Winner.Cell},
		Report:      rep,
		Repaired:    true,
		RepairKind:  out.Winner.Kind.String(),
		Candidates:  out.Candidates,
		Survivors:   out.Survivors,
		Batches:     out.Batches,
		ECOVerified: true,
	}
	redet, err := s.redetect(det)
	if err != nil {
		return nil, err
	}
	cor.Verified = !redet.Failed
	s.emit("repair", 0, "eco verify true, re-detection clean=%v", !redet.Failed)
	return cor, nil
}

package faults

import (
	"fmt"
	"math/bits"

	"fpgadbg/internal/obs"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/testgen"
)

// ScanConfig shapes one fault-simulation campaign: Patterns scalar test
// vectors, each broadcast to every lane and held for Cycles clock
// cycles, drawn deterministically from Seed. The same config must be used
// to build a fault dictionary and to observe a failing design against
// it — signatures are only comparable under identical stimulus.
type ScanConfig struct {
	Patterns int // broadcast patterns (default 64)
	Cycles   int // clock cycles each pattern is held (default 2)
	Seed     int64
	// OnBatch, when set, is called after each 64-fault batch with the
	// progress so far; returning an error aborts the scan (the campaign
	// service cancels through it).
	OnBatch func(done, total int) error
	// Obs, when set, receives one "faultscan" span per Scan call with
	// fault/batch counters. Nil disables tracing at zero cost.
	Obs *obs.Trace
}

func (c ScanConfig) withDefaults() ScanConfig {
	if c.Patterns < 1 {
		c.Patterns = 64
	}
	if c.Cycles < 1 {
		c.Cycles = 2
	}
	return c
}

// Stimulus builds the broadcast stimulus sequence for a machine with npi
// primary inputs: Patterns scalar vectors × Cycles cycles each, columns
// in sim PIOrder.
func (c ScanConfig) Stimulus(npi int) [][]uint64 {
	c = c.withDefaults()
	return testgen.Repeat(testgen.ScalarBlocks(npi, c.Patterns, c.Seed), c.Cycles)
}

// Syndrome is the observable outcome of one mutant under a ScanConfig —
// the per-fault payload shared by single-fault, pair and windowed scan
// results. One lane carries one mutant (which may compose several
// simultaneous faults), so a Syndrome describes a lane, not a fault.
type Syndrome struct {
	// Detected reports whether any primary output ever diverged from the
	// golden stream.
	Detected bool
	// FirstCycle is the first diverging cycle (absolute position in the
	// stimulus sequence), or -1 when undetected — the detection latency.
	FirstCycle int
	// Mismatches counts diverging (cycle, output) pairs.
	Mismatches int
	// Signature is an order-sensitive hash of the PO-mismatch stream; two
	// mutants share it iff they produce the same mismatch pattern under
	// this stimulus. Zero when undetected.
	Signature uint64
	// XorSig is an order-invariant XOR-fold of the mismatch stream: each
	// diverging (cycle, PO) pair contributes one mixed 64-bit term, and
	// pairs appearing twice cancel. For two faults whose effects never
	// touch the same (cycle, PO) observation, the pair mutant's XorSig is
	// exactly XorSigA ^ XorSigB — the syndrome-composition identity the
	// debug layer's pair dictionary decodes. Zero when undetected.
	XorSig uint64
	// POMask records which PO columns diverged (column i sets bit i mod 64).
	POMask uint64
}

// ScanResult is one fault's simulated outcome under a ScanConfig.
type ScanResult struct {
	Fault Fault
	Syndrome
}

// Signer folds a stream of (cycle, primary-output) mismatches into a
// Syndrome. Both the fault scanner and the debug layer's
// observed-behaviour hashing use it, so dictionary keys and observations
// agree bit for bit. Mismatches must be noted in (cycle asc, PO asc)
// order — Signature is order-sensitive (XorSig is order-invariant by
// construction).
type Signer struct {
	sig    uint64
	xor    uint64
	poMask uint64
	first  int
	n      int
}

// fnv64 constants (FNV-1a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Reset clears the accumulated signature.
func (s *Signer) Reset() {
	s.sig = fnvOffset
	s.xor = 0
	s.poMask = 0
	s.first = -1
	s.n = 0
}

// MixTerm is the 64-bit term one diverging (cycle, PO column)
// observation contributes to XorSig: a splitmix64 finalizer over the
// packed coordinates, so distinct observations XOR-combine without the
// systematic cancellation raw packed values would suffer.
func MixTerm(cycle, po int) uint64 {
	z := uint64(cycle)<<20 | uint64(po)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Note records one diverging (cycle, PO column) observation.
func (s *Signer) Note(cycle, po int) {
	if s.n == 0 {
		s.first = cycle
	}
	s.n++
	s.sig = (s.sig ^ (uint64(cycle)<<20 | uint64(po))) * fnvPrime
	s.xor ^= MixTerm(cycle, po)
	s.poMask |= 1 << (uint(po) & 63)
}

// Syndrome packages the accumulated stream, independent of what mutant
// produced it — the fault-count-agnostic form Result and the pair/window
// scanners all share.
func (s *Signer) Syndrome() Syndrome {
	y := Syndrome{FirstCycle: -1}
	if s.n > 0 {
		y.Detected = true
		y.FirstCycle = s.first
		y.Mismatches = s.n
		y.Signature = s.sig
		y.XorSig = s.xor
		y.POMask = s.poMask
	}
	return y
}

// Result packages the accumulated stream as the outcome for one fault.
func (s *Signer) Result(f Fault) ScanResult {
	return ScanResult{Fault: f, Syndrome: s.Syndrome()}
}

// Scan fault-simulates every fault in Lanes()-sized batches: each batch
// arms up to 64·W faults on the lanes of one fork of prog (which must be
// compiled from the golden design — any lane width works, and a wide
// machine retires proportionally more faults per replay), replays the
// broadcast stimulus once, and reads each lane's divergence from the
// golden trace. No netlist is cloned and nothing is recompiled — per
// batch the only work beyond the trace replay is arming the lane faults.
// Faults the golden run never excites (sim.Activity.Excites) take no
// lane: their outcome is exactly the undetected zero syndrome. Results
// are in input order.
func Scan(prog *sim.Machine, fs []Fault, cfg ScanConfig) ([]ScanResult, error) {
	cfg = cfg.withDefaults()
	sp := scanSpan(cfg, fs, prog.Lanes())
	defer sp.End()
	out, st, err := scanStim(prog, fs, cfg.Stimulus(len(prog.PIOrder())), cfg.OnBatch)
	st.addTo(sp)
	return out, err
}

// ScanStim is Scan over an explicit broadcast stimulus sequence (every
// word 0 or all-ones) — the entry point for callers that derive the
// stimulus from elsewhere, e.g. the fault dictionary transposing a
// detection sequence (testgen.TransposeToScalar).
func ScanStim(prog *sim.Machine, fs []Fault, stim [][]uint64, onBatch func(done, total int) error) ([]ScanResult, error) {
	out, _, err := scanStim(prog, fs, stim, onBatch)
	return out, err
}

func scanStim(prog *sim.Machine, fs []Fault, stim [][]uint64, onBatch func(done, total int) error) ([]ScanResult, scanStats, error) {
	mu := prog.Fork()
	gt, live, err := goldenRun(prog, mu, fs, stim)
	if err != nil {
		return nil, scanStats{}, err
	}
	st := scanStats{unexcited: len(fs) - len(live)}
	out := make([]ScanResult, len(fs))
	for i, f := range fs {
		out[i] = ScanResult{Fault: f, Syndrome: Syndrome{FirstCycle: -1}}
	}
	pr := newProgress(onBatch, len(fs), prog.Lanes(), st.unexcited)
	var tr sim.Trace
	signers := make([]Signer, prog.Lanes())
	for _, batch := range batchesOf(live, prog.Lanes()) {
		if err := arm(mu, fs, batch); err != nil {
			return nil, st, err
		}
		for lane := range batch {
			signers[lane].Reset()
		}
		mu.RunTraceInto(&tr, stim)
		st.replayed++
		diffTraceInto(signers, batch, &tr, gt)
		for lane, i := range batch {
			out[i].Syndrome = signers[lane].Syndrome()
		}
		if err := pr.settle(len(batch)); err != nil {
			return nil, st, err
		}
	}
	if err := pr.finish(); err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// Detection is one fault's verdict under a stimulus: the Detected and
// FirstCycle of its Syndrome, without the rest.
type Detection struct {
	Fault      Fault
	Detected   bool
	FirstCycle int // first diverging cycle, -1 when undetected
	// Unexcited marks a fault the golden run never excites: its verdict,
	// undetected, needed no simulation.
	Unexcited bool
}

// detectWindow is the length in cycles of Detect's first phase, chosen
// by measurement. Over the faultscan benchmark's eight single-fault
// specs (128 patterns × 2 cycles) at three seeds each, two phases with
// windows of 16, 32, 48 and 64 cycles replay 0.58, 0.54, 0.55 and 0.57
// of the batch-steps an unfiltered one-phase scan needs; the pre-filter
// alone, 0.84.
const detectWindow = 32

// Detect computes each fault's detection verdict — Detected and
// FirstCycle exactly as Scan reports them — for callers that read
// nothing else, in two phases sharing one golden replay and one
// activity pre-filter. Phase 1 replays every excited fault for the first
// detectWindow cycles; phase 2 repacks the faults phase 1 left
// undetected into fresh batches and replays them from cycle 0 over the
// whole stimulus. A fault undetected inside the window has no divergence
// before it, so its replay from cycle 0 in a new lane finds the same
// first divergence one long replay would. Windowed faults armed only
// after the window skip phase 1, which cannot detect them. A stimulus of
// at most 2·detectWindow cycles runs in one phase.
func Detect(prog *sim.Machine, fs []Fault, cfg ScanConfig) ([]Detection, error) {
	cfg = cfg.withDefaults()
	sp := scanSpan(cfg, fs, prog.Lanes())
	defer sp.End()
	out, st, err := detectStim(prog, fs, cfg.Stimulus(len(prog.PIOrder())), cfg.OnBatch)
	st.addTo(sp)
	return out, err
}

func detectStim(prog *sim.Machine, fs []Fault, stim [][]uint64, onBatch func(done, total int) error) ([]Detection, scanStats, error) {
	mu := prog.Fork()
	gt, live, err := goldenRun(prog, mu, fs, stim)
	if err != nil {
		return nil, scanStats{}, err
	}
	st := scanStats{unexcited: len(fs) - len(live)}
	out := make([]Detection, len(fs))
	for i, f := range fs {
		out[i] = Detection{Fault: f, FirstCycle: -1, Unexcited: true}
	}
	for _, i := range live {
		out[i].Unexcited = false
	}
	pr := newProgress(onBatch, len(fs), prog.Lanes(), st.unexcited)

	phases := []int{len(stim)}
	if len(stim) > 2*detectWindow {
		phases = []int{detectWindow, len(stim)}
	}
	var tr sim.Trace
	first := make([]int, prog.Lanes())
	pending, from := live, 0
	for _, cycles := range phases {
		var next []int
		if cycles < len(stim) {
			// Faults armed only after the window cannot diverge inside it.
			var run []int
			for _, i := range pending {
				if fs[i].Windowed() && int(fs[i].From) >= cycles {
					next = append(next, i)
				} else {
					run = append(run, i)
				}
			}
			pending = run
		}
		for _, batch := range batchesOf(pending, prog.Lanes()) {
			if err := arm(mu, fs, batch); err != nil {
				return nil, st, err
			}
			mu.RunTraceInto(&tr, stim[:cycles])
			st.replayed++
			firstDivergence(first[:len(batch)], &tr, gt, from)
			settled := 0
			for lane, i := range batch {
				switch {
				case first[lane] >= 0:
					out[i].Detected, out[i].FirstCycle = true, first[lane]
					settled++
				case cycles < len(stim):
					next = append(next, i)
				default:
					settled++
				}
			}
			if err := pr.settle(settled); err != nil {
				return nil, st, err
			}
		}
		pending, from = next, cycles
	}
	if err := pr.finish(); err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// goldenRun replays stim on a width-1 golden fork of prog, summarizing
// its activity, and returns the golden trace with the indices of the
// faults the run excites — the only ones that need a lane. The stimulus
// is broadcast, so every lane word of a wider golden replay would repeat
// word 0, the only one firstDivergence and diffTraceInto read. Every
// fault it drops is still armed once on mu, so a fault the lane engine
// rejects fails here just as it would in a batch.
func goldenRun(prog, mu *sim.Machine, fs []Fault, stim [][]uint64) (*sim.Trace, []int, error) {
	g, err := prog.ForkWidth(1)
	if err != nil {
		return nil, nil, fmt.Errorf("faults: %w", err)
	}
	gt := new(sim.Trace)
	act, err := g.TraceActivity(gt, stim)
	if err != nil {
		return nil, nil, fmt.Errorf("faults: %w", err)
	}
	live := make([]int, 0, len(fs))
	for i, f := range fs {
		lf, err := f.Lane()
		if err != nil {
			return nil, nil, err
		}
		if act.Excites(lf) {
			live = append(live, i)
		} else if err := mu.SetLaneFault(0, lf); err != nil {
			return nil, nil, fmt.Errorf("faults: arming %s: %w", f.Describe(prog.Netlist()), err)
		}
	}
	mu.ClearLaneFaults()
	return gt, live, nil
}

// arm clears mu's lane faults and arms fs[batch[l]] on lane l.
func arm(mu *sim.Machine, fs []Fault, batch []int) error {
	mu.ClearLaneFaults()
	for lane, i := range batch {
		lf, err := fs[i].Lane()
		if err != nil {
			return err
		}
		if err := mu.SetLaneFault(lane, lf); err != nil {
			return fmt.Errorf("faults: arming %s: %w", fs[i].Describe(mu.Netlist()), err)
		}
	}
	return nil
}

// scanStats counts what the activity pre-filter saved one Scan or
// Detect call.
type scanStats struct {
	unexcited int // faults given their verdict without a lane
	replayed  int // lane batches replayed, over all phases
}

// scanSpan opens the "faultscan" span of one Scan or Detect call; its
// fault and batch counters count the input universe.
func scanSpan(cfg ScanConfig, fs []Fault, lanes int) *obs.Span {
	sp := cfg.Obs.Start(obs.StageFaultScan)
	sp.Add("faults", int64(len(fs)))
	sp.Add("fault-batches", int64(len(BatchesN(fs, lanes))))
	return sp
}

func (st scanStats) addTo(sp *obs.Span) {
	sp.Add("unexcited", int64(st.unexcited))
	sp.Add("replayed-batches", int64(st.replayed))
}

// progress reports a scan to its OnBatch callback in units of the
// input's lane batches — len(BatchesN(fs, lanes)) in all — however few
// batches are actually replayed: done is total scaled by the share of
// faults whose verdict is final, so it never falls and reaches total with
// the last report. It reports after every replayed batch, so a callback
// that cancels is still consulted between replays, and once at the end
// when nothing was replayed.
type progress struct {
	onBatch       func(done, total int) error
	faults, total int
	final         int
	reported      bool
}

func newProgress(onBatch func(done, total int) error, faults, lanes, final int) *progress {
	return &progress{onBatch: onBatch, faults: faults, total: (faults + lanes - 1) / lanes, final: final}
}

// settle records n more final verdicts and reports.
func (p *progress) settle(n int) error {
	p.final += n
	if p.onBatch == nil {
		return nil
	}
	p.reported = true
	return p.onBatch(p.total*p.final/p.faults, p.total)
}

// finish reports completion if no replayed batch did.
func (p *progress) finish() error {
	if p.reported || p.faults == 0 {
		return nil
	}
	return p.settle(0)
}

// firstDivergence sets first[l] to the first cycle at or after from at
// which lane l's primary outputs in tr diverge from the golden stream,
// or -1; lanes past len(first) are ignored. Like diffTraceInto it reads
// word 0 of the broadcast golden trace for every lane word.
func firstDivergence(first []int, tr, gt *sim.Trace, from int) {
	var pend [sim.MaxWidth]uint64
	for l := range first {
		first[l] = -1
		pend[l/64] |= 1 << uint(l%64)
	}
	left := len(first)
	for c := from; c < tr.Cycles && left > 0; c++ {
		for po := 0; po < tr.NumPOs; po++ {
			g := gt.Out(c, po)
			for w := 0; w < tr.Width; w++ {
				d := (tr.OutW(c, po, w) ^ g) & pend[w]
				pend[w] &^= d
				for ; d != 0; d &= d - 1 {
					first[w*64+bits.TrailingZeros64(d)] = c
					left--
				}
			}
		}
	}
}

// diffTraceInto notes every diverging (cycle, PO) observation of the
// first len(batch) lanes into their signers, comparing a perturbed wide
// trace against the golden stream. The broadcast stimulus keeps all
// golden lane words equal, so word 0 of the golden trace stands in for
// every word of the perturbed one. The batch element type is irrelevant —
// only its length (mutants armed this batch) matters, so single-fault,
// pair and windowed scans all share this loop.
func diffTraceInto[T any](signers []Signer, batch []T, tr, gt *sim.Trace) {
	for c := 0; c < tr.Cycles; c++ {
		for po := 0; po < tr.NumPOs; po++ {
			g := gt.Out(c, po)
			for w := 0; w < tr.Width; w++ {
				d := tr.OutW(c, po, w) ^ g
				for d != 0 {
					lane := w*64 + bits.TrailingZeros64(d)
					d &= d - 1
					if lane < len(batch) {
						signers[lane].Note(c, po)
					}
				}
			}
		}
	}
}

// SerialScan computes the same per-fault outcomes one mutant at a time —
// the legacy campaign shape: per fault, clone the golden netlist, apply
// the mutation, recompile and replay (stuck-ats on source nets, which
// have no netlist form, run as net overrides on a fork instead). It is
// the differential oracle for Scan — outcomes must be bit-identical —
// and the baseline the fault-parallel speedup is measured against
// (TestScanMatchesSerialAcrossCatalog).
func SerialScan(prog *sim.Machine, fs []Fault, cfg ScanConfig) ([]ScanResult, error) {
	cfg = cfg.withDefaults()
	return SerialScanStim(prog, fs, cfg.Stimulus(len(prog.PIOrder())), cfg.OnBatch)
}

// SerialScanStim is SerialScan over an explicit broadcast stimulus.
func SerialScanStim(prog *sim.Machine, fs []Fault, stim [][]uint64, onBatch func(done, total int) error) ([]ScanResult, error) {
	golden := prog.Netlist()
	gt := prog.Fork().RunTrace(stim)
	out := make([]ScanResult, 0, len(fs))
	var s Signer
	for fi, f := range fs {
		var tr *sim.Trace
		mutant := golden.Clone()
		applied, err := f.Apply(mutant)
		if err != nil {
			return nil, err
		}
		if applied {
			m2, err := sim.Compile(mutant)
			if err != nil {
				return nil, fmt.Errorf("faults: %s: %w", f.Describe(golden), err)
			}
			tr = m2.RunTrace(stim)
		} else {
			m2 := prog.Fork()
			w := uint64(0)
			if f.Kind == StuckAt1 {
				w = ^uint64(0)
			}
			if err := m2.SetOverride(f.Net, w); err != nil {
				return nil, fmt.Errorf("faults: %s: %w", f.Describe(golden), err)
			}
			tr = m2.RunTrace(stim)
		}
		// Broadcast stimulus and a single whole-design mutation keep all
		// lanes identical, so word-0 comparison is per-lane exact.
		s.Reset()
		for c := 0; c < tr.Cycles; c++ {
			for po := 0; po < tr.NumPOs; po++ {
				if tr.Out(c, po) != gt.Out(c, po) {
					s.Note(c, po)
				}
			}
		}
		out = append(out, s.Result(f))
		if onBatch != nil && ((fi+1)%64 == 0 || fi+1 == len(fs)) {
			if err := onBatch((fi+1+63)/64, (len(fs)+63)/64); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

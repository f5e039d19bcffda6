package main

// The traced replay runs the same generated campaigns without the
// service, calling each layer's public functions directly — in the order
// and with the artifact sharing the service uses — under spans owned by
// the benchmark. It measures where a campaign's time goes; end-to-end
// numbers never come from it.

import (
	"errors"
	"fmt"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/debug"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/overlay"
	"fpgadbg/internal/service"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
)

// outcome is the deterministic part of a campaign result that the replay
// must reproduce exactly.
type outcome struct {
	Detected, Clean                                    bool
	Iterations, Rounds, Probes, DictResolved, Repaired int
	RepairKind                                         string
	FaultsDetected                                     int
}

func outcomeOf(r *service.Result) outcome {
	return outcome{
		Detected: r.Detected, Clean: r.Clean,
		Iterations: r.Iterations, Rounds: r.Rounds, Probes: r.ProbesInserted,
		DictResolved: r.DictResolved, Repaired: r.Repaired, RepairKind: r.RepairKind,
		FaultsDetected: r.FaultsDetected,
	}
}

// The replay's artifact keys, kept together here, copy the service's
// cache keys: golden/, layout/ and dict/ in internal/service/service.go,
// prog/ in internal/service/repairrun.go. A new service-side cache or a
// changed key must be mirrored here; the outcome check catches a changed
// result, not a changed cost. Taking the per-layer numbers from the
// service's own stage spans instead would retire this copy.

// golden is the per-(design, lanes) artifact: the mapped golden netlist,
// its fingerprint and its compiled program.
type golden struct {
	nl   *netlist.Netlist
	fp   string
	mach *sim.Machine
}

type goldenKey struct {
	design string
	lanes  int
}

// layoutKey holds everything the service's layout cache key holds.
type layoutKey struct {
	implFP                     string
	overhead, tileFrac, effort float64
	seed                       int64
	overlay                    bool
}

// pooled mirrors one entry of the service's layout pool: the pristine
// layout (read only by the baseline), the one working copy campaigns run
// on inside a checkpoint, and the overlay plan.
type pooled struct {
	pristine, work *core.Layout
	digest         string
	plan           *overlay.Plan
	baselined      bool
}

type dictKey struct {
	fp            string
	words, cycles int
	seed          int64
}

type progKey struct {
	implFP string
	lanes  int
}

// traceMap is the replay's golden-trace store (the service's is its
// artifact cache).
type traceMap map[string]*sim.Trace

func (m traceMap) GetTrace(key string) (*sim.Trace, bool) { tr, ok := m[key]; return tr, ok }
func (m traceMap) PutTrace(key string, tr *sim.Trace)     { m[key] = tr }

type replayer struct {
	t       *tracer
	goldens map[goldenKey]*golden
	layouts map[layoutKey]*pooled
	dicts   map[dictKey]*debug.FaultDict
	progs   map[progKey]*sim.Machine
	traces  traceMap
}

func newReplayer() *replayer {
	return &replayer{
		t:       newTracer(),
		goldens: make(map[goldenKey]*golden),
		layouts: make(map[layoutKey]*pooled),
		dicts:   make(map[dictKey]*debug.FaultDict),
		progs:   make(map[progKey]*sim.Machine),
		traces:  make(traceMap),
	}
}

// campaign replays one spec under a bench.campaign root span.
func (rp *replayer) campaign(sp service.Spec) (outcome, error) {
	root := rp.t.start("bench.campaign")
	defer rp.t.end(root)
	g, err := rp.goldenFor(sp.Design, sp.SimLanes)
	if err != nil {
		return outcome{}, err
	}
	if sp.Kind == service.KindFaultScan {
		return rp.scan(sp, g)
	}

	var impl *netlist.Netlist
	rp.t.do("netlist.clone", func() error { impl = g.nl.Clone(); return nil })
	if _, err := rp.t.do("faults.inject", func() error {
		_, err := faults.InjectRandom(impl, sp.FaultSeed)
		return err
	}); err != nil {
		return outcome{}, err
	}
	var implFP string
	rp.t.do("netlist.fingerprint", func() error { implFP = impl.Fingerprint(); return nil })
	pl, err := rp.layout(sp, impl, implFP)
	if err != nil {
		return outcome{}, err
	}
	if err := rp.baseline(pl, sp.Seed); err != nil {
		return outcome{}, err
	}

	// Like a pool lease: the campaign runs inside one layout transaction
	// and the copy is rolled back to the pristine digest afterwards.
	var cp core.Checkpoint
	rp.t.do("core.checkpoint", func() error { cp = pl.work.Checkpoint(); return nil })
	out, err := rp.pipeline(sp, g, pl, impl, implFP)
	_, rbErr := rp.t.do("core.rollback", func() error { return pl.work.Rollback(cp) })
	_, dgErr := rp.t.do("core.digest", func() error {
		if pl.work.StateDigest() != pl.digest {
			return errors.New("working layout did not roll back to the pristine digest")
		}
		return nil
	})
	return out, errors.Join(err, rbErr, dgErr)
}

func (rp *replayer) goldenFor(design string, lanes int) (*golden, error) {
	k := goldenKey{design, lanes}
	if g, ok := rp.goldens[k]; ok {
		return g, nil
	}
	info, err := bench.ByName(design)
	if err != nil {
		return nil, err
	}
	var nl *netlist.Netlist
	rp.t.do("bench.build", func() error { nl = info.Build(); return nil })
	g := &golden{}
	if _, err := rp.t.do("synth.techmap", func() error {
		g.nl, err = synth.TechMap(nl)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := rp.t.do("sim.compile", func() error {
		g.mach, err = sim.CompileWidth(g.nl, lanes/64)
		return err
	}); err != nil {
		return nil, err
	}
	rp.t.do("netlist.fingerprint", func() error { g.fp = g.nl.Fingerprint(); return nil })
	rp.goldens[k] = g
	return g, nil
}

// layout returns the pooled layout of an implementation, building it
// (and the overlay, and the working copy) on first use.
func (rp *replayer) layout(sp service.Spec, impl *netlist.Netlist, implFP string) (*pooled, error) {
	k := layoutKey{implFP, sp.Overhead, sp.TileFrac, sp.PlaceEffort, sp.Seed, sp.Overlay}
	if pl, ok := rp.layouts[k]; ok {
		return pl, nil
	}
	cs := core.Spec{Overhead: sp.Overhead, TileFrac: sp.TileFrac, Seed: sp.Seed, PlaceEffort: sp.PlaceEffort}
	if sp.Overlay {
		cs.OverlayReserve = overlay.DefaultReserve
	}
	pl := &pooled{}
	id, err := rp.t.do("core.build", func() error {
		var err error
		pl.pristine, err = core.BuildMapped(impl.Clone(), cs)
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.t.attr(id, "place_moves", float64(pl.pristine.BuildEffort.PlaceMoves))
	rp.t.attr(id, "route_expansions", float64(pl.pristine.BuildEffort.RouteExpansions))
	if sp.Overlay {
		id, err := rp.t.do("overlay.build", func() error {
			var err error
			pl.plan, err = overlay.Build(pl.pristine, overlay.DefaultChannels)
			return err
		})
		if err != nil {
			return nil, err
		}
		rp.t.attr(id, "taps", float64(pl.plan.Taps))
		rp.t.attr(id, "trunk_len", float64(pl.plan.TrunkLen))
	}
	rp.t.do("core.digest", func() error { pl.digest = pl.pristine.StateDigest(); return nil })
	rp.t.do("core.clone", func() error { pl.work = pl.pristine.Clone(); return nil })
	rp.layouts[k] = pl
	return pl, nil
}

// baseline runs the full re-place-and-route comparison point once per
// pooled layout, as the service caches it.
func (rp *replayer) baseline(pl *pooled, seed int64) error {
	if pl.baselined {
		return nil
	}
	var eff core.Effort
	id, err := rp.t.do("core.baseline", func() error {
		var err error
		eff, err = pl.pristine.FullRePlaceRoute(seed + 1000)
		return err
	})
	if err != nil {
		return err
	}
	rp.t.attr(id, "place_moves", float64(eff.PlaceMoves))
	pl.baselined = true
	return nil
}

func (rp *replayer) dict(sp service.Spec, g *golden) (*debug.FaultDict, error) {
	k := dictKey{g.fp, sp.Words, sp.Cycles, sp.Seed}
	if d, ok := rp.dicts[k]; ok {
		return d, nil
	}
	var d *debug.FaultDict
	id, err := rp.t.do("debug.dict_build", func() error {
		var err error
		d, err = debug.BuildFaultDict(g.mach, sp.Words, sp.Cycles, sp.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.t.attr(id, "faults", float64(d.Faults))
	rp.dicts[k] = d
	return d, nil
}

// pipeline sets up the session the way the service does and runs the
// spec's pipeline: the repair pass or the detect → localize → correct
// loop.
func (rp *replayer) pipeline(sp service.Spec, g *golden, pl *pooled, impl *netlist.Netlist, implFP string) (outcome, error) {
	sess, err := debug.NewSession(g.nl, pl.work, sp.Seed)
	if err != nil {
		return outcome{}, err
	}
	sess.Traces = rp.traces
	sess.SimWidth = sp.SimLanes / 64
	var fork *sim.Machine
	rp.t.do("sim.fork", func() error { fork = g.mach.Fork(); return nil })
	sess.SetGoldenMachine(fork)
	sess.SetGoldenFingerprint(g.fp)
	if sp.Overlay {
		sess.Overlay = pl.plan.NewSelector(pl.work)
		sess.Causal = true
	}
	if sp.UseDict {
		if sess.Dict, err = rp.dict(sp, g); err != nil {
			return outcome{}, err
		}
	}
	if sp.Kind == service.KindRepair {
		return rp.repairPass(sess, sp, impl, implFP)
	}
	return rp.loop(sess, sp)
}

// loop is Session.RunLoopCore with each step timed.
func (rp *replayer) loop(sess *debug.Session, sp service.Spec) (outcome, error) {
	var o outcome
	for iter := 0; iter < sp.MaxIters; iter++ {
		det, err := rp.detect(sess, sp)
		if err != nil {
			return o, err
		}
		if !det.Failed {
			o.Clean = true
			break
		}
		o.Iterations++
		diag, err := rp.localize(sess, det, sp)
		if err != nil {
			return o, err
		}
		o.addDiagnosis(diag)
		cor, err := rp.correct(sess, diag, det, nil)
		if err != nil {
			return o, err
		}
		if cor.Repaired {
			o.Repaired++
			o.RepairKind = cor.RepairKind
		}
		if cor.Verified {
			o.Clean = true
			break
		}
	}
	o.Detected = o.Iterations > 0
	return o, nil
}

// repairPass is the service's repair campaign: one detect → dictionary
// localize → repair pass, on a candidate program cached per
// implementation when the dictionary left the netlist pristine.
func (rp *replayer) repairPass(sess *debug.Session, sp service.Spec, impl *netlist.Netlist, implFP string) (outcome, error) {
	det, err := rp.detect(sess, sp)
	if err != nil || !det.Failed {
		return outcome{Clean: true}, err
	}
	o := outcome{Detected: true, Iterations: 1}
	diag, err := rp.localize(sess, det, sp)
	if err != nil {
		return o, err
	}
	o.addDiagnosis(diag)
	var prog *sim.Machine
	if diag.Dict {
		k := progKey{implFP, sp.SimLanes}
		if prog = rp.progs[k]; prog == nil {
			if _, err := rp.t.do("sim.compile", func() error {
				prog, err = sim.CompileWidth(impl.Clone(), sp.SimLanes/64)
				return err
			}); err != nil {
				return o, err
			}
			rp.progs[k] = prog
		}
	}
	cor, err := rp.correct(sess, diag, det, prog)
	if err != nil {
		return o, err
	}
	o.Clean = cor.Verified
	if cor.Repaired {
		o.Repaired = 1
		o.RepairKind = cor.RepairKind
	}
	return o, nil
}

func (o *outcome) addDiagnosis(d *debug.Diagnosis) {
	o.Rounds += d.Rounds
	o.Probes += d.Probes
	if d.Dict {
		o.DictResolved++
	}
}

func (rp *replayer) detect(sess *debug.Session, sp service.Spec) (*debug.Detection, error) {
	var det *debug.Detection
	_, err := rp.t.do("debug.detect", func() error {
		var err error
		det, err = sess.Detect(sp.Words, sp.Cycles)
		return err
	})
	return det, err
}

func (rp *replayer) localize(sess *debug.Session, det *debug.Detection, sp service.Spec) (*debug.Diagnosis, error) {
	switches, fallbacks := sess.OverlaySwitches, sess.OverlayFallbacks
	var diag *debug.Diagnosis
	id, err := rp.t.do("debug.localize", func() error {
		var err error
		diag, err = sess.LocalizeDict(det, sp.MaxRounds, sp.ProbesPerRound)
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.t.attr(id, "rounds", float64(diag.Rounds))
	rp.t.attr(id, "probes", float64(diag.Probes))
	rp.t.attr(id, "cad_place_moves", float64(diag.Effort.PlaceMoves))
	rp.t.attr(id, "dict_hit", b2f(diag.Dict))
	rp.t.attr(id, "suspects", float64(len(diag.Suspects)))
	rp.t.attr(id, "overlay_switches", float64(sess.OverlaySwitches-switches))
	rp.t.attr(id, "overlay_fallbacks", float64(sess.OverlayFallbacks-fallbacks))
	return diag, nil
}

func (rp *replayer) correct(sess *debug.Session, diag *debug.Diagnosis, det *debug.Detection, prog *sim.Machine) (*debug.Correction, error) {
	var cor *debug.Correction
	var fellBack bool
	id, err := rp.t.do("debug.correct", func() error {
		var err error
		cor, fellBack, err = sess.CorrectAuto(diag, det, prog)
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.t.attr(id, "fallback", b2f(fellBack))
	rp.t.attr(id, "candidates", float64(cor.Candidates))
	rp.t.attr(id, "survivors", float64(cor.Survivors))
	rp.t.attr(id, "batches", float64(cor.Batches))
	return cor, nil
}

func (rp *replayer) scan(sp service.Spec, g *golden) (outcome, error) {
	var results []faults.ScanResult
	id, err := rp.t.do("faults.scan", func() error {
		var err error
		results, err = faults.Scan(g.mach, faults.Universe(g.nl),
			faults.ScanConfig{Patterns: sp.Patterns, Cycles: sp.Cycles, Seed: sp.Seed})
		return err
	})
	if err != nil {
		return outcome{}, fmt.Errorf("scan %s: %w", sp.Design, err)
	}
	rp.t.attr(id, "faults", float64(len(results)))
	var o outcome
	for _, r := range results {
		if r.Detected {
			o.FaultsDetected++
		}
	}
	o.Detected = o.FaultsDetected > 0
	return o, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

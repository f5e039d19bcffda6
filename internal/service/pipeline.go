package service

// The campaign pipeline. Every campaign runs the same stages in order:
//
//	golden → inject → lease → session → loop
//
// and a faultscan campaign branches off after golden into its scan body
// (faultscan.go). Each stage is a plain function on run, the campaign's
// shared state, and every cache lookup goes through run.artifact. A
// panic in any stage fails its campaign alone (runCampaign).

import (
	"context"
	"fmt"
	rtdebug "runtime/debug"
	"time"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/debug"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/overlay"
	"fpgadbg/internal/repair"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
)

// stageHook, set only by tests, runs at every stage boundary.
var stageHook func(stage string)

// run is one campaign's pass through the pipeline: the state its stage
// functions share.
type run struct {
	s    *Service
	ctx  context.Context
	c    *campaign
	spec Spec
	tr   *obs.Trace
	res  *Result
	// stage is the running stage, named in a panic's error.
	stage string
	ga    *goldenArtifact
	// The leased working layout and its pool, nil before the lease stage.
	pool   *layoutPool
	layout *core.Layout
	lease  core.Checkpoint
}

func (r *run) enter(stage string) {
	r.stage = stage
	if stageHook != nil {
		stageHook(stage)
	}
}

// artifact returns the cached artifact under key, building it on a miss.
// It counts the outcome on the campaign's trace and result, then checks
// for cancellation; how reads "cache hit" or "built", for event messages.
func (r *run) artifact(key string, build func() (any, int64, error)) (v any, how string, err error) {
	v, hit, err := r.s.cache.GetOrBuild(key, build)
	if err != nil {
		return nil, "", fmt.Errorf("%s %s: %w", r.stage, r.spec.Design, err)
	}
	if hit {
		r.res.CacheHits++
		r.tr.Add("cache-hits", 1)
		how = "cache hit"
	} else {
		r.res.CacheMisses++
		r.tr.Add("cache-misses", 1)
		how = "built"
	}
	return v, how, r.ctx.Err()
}

// runCampaign executes one campaign through the pipeline. A panic in any
// stage is recovered here: the campaign fails with an error naming the
// stage, the stack goes in its event log, and its leased layout is
// dropped instead of being rolled back into the pool.
func (s *Service) runCampaign(ctx context.Context, c *campaign) (res *Result, err error) {
	start := time.Now()
	r := &run{s: s, ctx: ctx, c: c, spec: c.spec, tr: c.trace, res: &Result{Design: c.spec.Design}}
	defer func() {
		p := recover()
		if r.layout != nil {
			// Detach the campaign trace before the copy can be reused.
			r.layout.SetObs(nil)
			if p == nil {
				r.pool.checkin(r.layout, r.lease)
			}
		}
		if p != nil {
			c.appendEvent("panic", 0, "panic in stage %s: %v\n%s", r.stage, p, rtdebug.Stack())
			s.panics.Add(1)
			s.reg.Counter("campaign_panics").Add(1)
			res, err = nil, fmt.Errorf("service: campaign panicked in stage %s: %v", r.stage, p)
		}
	}()
	if err = r.golden(); err == nil {
		if r.spec.Kind == KindFaultScan {
			err = r.faultScan()
		} else {
			err = r.loop()
		}
	}
	if err != nil {
		// A stage cut short by cancellation reports the cancellation,
		// whatever error it surfaced as.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	r.res.WallMs = float64(time.Since(start).Microseconds()) / 1000
	r.res.Digest = r.res.digest()
	return r.res, nil
}

// goldenArtifact bundles everything derivable from a design name alone:
// the mapped golden netlist (shared read-only), its content fingerprint,
// and the compiled simulator program (forked per campaign).
type goldenArtifact struct {
	golden *netlist.Netlist
	fp     string
	mach   *sim.Machine
}

// golden fetches the golden artifact. The bench catalog is static and
// deterministic, so the design name plus the lane width addresses it:
// warm campaigns skip the netlist rebuild and fingerprint hashing
// entirely, and campaigns at different sim_lanes never share a program
// (the value plane is laid out per width).
func (r *run) golden() error {
	r.enter("golden")
	spec, tr, s := r.spec, r.tr, r.s
	v, how, err := r.artifact(fmt.Sprintf("golden/%s/l%d", spec.Design, spec.SimLanes), func() (any, int64, error) {
		// The cold-path builds are spans on the building campaign's
		// trace; campaigns served from cache record none (the cache-hit
		// counter tells that story instead). A durable service tries the
		// spilled netlist first — decoding it replaces synth+techmap and
		// is digest-safe because the encoding is exact (persist.go).
		mapped, ok := s.loadSpilledNetlist(spec.Design)
		if ok {
			ssp := tr.Start(obs.StageSynth)
			ssp.Add("netlist-spill-hit", 1)
			ssp.End()
		} else {
			info, err := bench.ByName(spec.Design)
			if err != nil {
				return nil, 0, err
			}
			ssp := tr.Start(obs.StageSynth)
			nl := info.Build()
			ssp.End()
			msp := tr.Start(obs.StageMap)
			mapped, err = synth.TechMap(nl)
			msp.End()
			if err != nil {
				return nil, 0, err
			}
			s.spillNetlist(spec.Design, mapped)
		}
		csp := tr.Start(obs.StageCompile)
		mach, err := sim.CompileWidth(mapped, spec.SimLanes/64)
		csp.End()
		if err != nil {
			return nil, 0, err
		}
		ga := &goldenArtifact{golden: mapped, fp: mapped.Fingerprint(), mach: mach}
		return ga, netlistBytes(mapped) + machineBytes(mach), nil
	})
	if err != nil {
		return err
	}
	r.ga = v.(*goldenArtifact)
	r.c.appendEvent("synth", 0, "golden mapped netlist %s (%s)", r.ga.fp[:8], how)
	r.c.appendEvent("compile", 0, "golden simulator program (%s)", how)
	return nil
}

// loop runs the debugging kinds after golden: inject, lease, session,
// then the detect → localize → correct loop, and assembles the result.
// The repair kind is the same loop capped at one iteration.
func (r *run) loop() error {
	impl, implFP, err := r.inject()
	if err != nil {
		return err
	}
	if err := r.leaseLayout(impl, implFP); err != nil {
		return err
	}
	sess, err := r.session(implFP)
	if err != nil {
		return err
	}

	r.enter("loop")
	spec, res := r.spec, r.res
	iters := spec.MaxIters
	if spec.Kind == KindRepair {
		iters = 1
	}
	rep, err := sess.RunLoopCore(iters, spec.Words, spec.Cycles, spec.MaxRounds, spec.ProbesPerRound)
	if err != nil {
		return err
	}
	res.Detected = rep.Iterations > 0
	res.Clean = rep.Clean
	res.Iterations = rep.Iterations
	for _, diag := range rep.Diagnoses {
		res.Rounds += diag.Rounds
		res.ProbesInserted += diag.Probes
		if diag.Dict {
			res.DictResolved++
		}
	}
	for _, cor := range rep.Corrections {
		res.Fixed = append(res.Fixed, cor.Fixed...)
		if cor.Repaired {
			res.Repaired++
			res.RepairKind = cor.RepairKind
			res.Candidates += cor.Candidates
			res.Survivors += cor.Survivors
			res.CandidateBatches += cor.Batches
			res.ECOVerified = cor.ECOVerified
		} else {
			res.RepairFallback = true
		}
	}
	if spec.Overlay {
		res.Overlay = true
		res.OverlaySwitches = sess.OverlaySwitches
		res.OverlayFallbacks = sess.OverlayFallbacks
	}
	res.TileWork = sess.TileEffort.Work()
	// The full re-place-and-route comparison point is the build that laid
	// this implementation out in the first place.
	res.FullWork = r.pool.pristine.BuildEffort.Work()
	if updates := res.Rounds + res.Iterations; updates > 0 && res.TileWork > 0 {
		res.SpeedupPerIter = res.FullWork / (res.TileWork / float64(updates))
	}
	return nil
}

// inject builds the implementation under test: a clone of the golden
// netlist carrying the spec's design error.
func (r *run) inject() (impl *netlist.Netlist, implFP string, err error) {
	r.enter("inject")
	impl = r.ga.golden.Clone()
	inj, err := faults.InjectRandom(impl, r.spec.FaultSeed)
	if err != nil {
		return nil, "", fmt.Errorf("inject: %w", err)
	}
	r.res.Injected = inj.String()
	r.c.appendEvent("inject", 0, "design error: %v", inj)
	return impl, impl.Fingerprint(), r.ctx.Err()
}

// leaseLayout checks a working copy of the pristine tiled layout out of
// its pool. The pool is the expensive place-and-route artifact, cached by
// content address and physical-design knobs; it hands each campaign an
// exclusive transactional copy (warmed persistent router included) that
// runCampaign rolls back on check-in, so a Layout.Clone only happens when
// concurrency outgrows the free list.
func (r *run) leaseLayout(impl *netlist.Netlist, implFP string) error {
	r.enter("lease")
	spec := r.spec
	v, how, err := r.artifact(spec.layoutKey(implFP), func() (any, int64, error) {
		// The initial build records place/route spans on the building
		// campaign's trace; BuildMapped detaches it before the layout is
		// stored, so the cached pristine never outlives this trace.
		cs := core.Spec{
			Overhead: spec.Overhead, TileFrac: spec.TileFrac,
			Seed: spec.Seed, PlaceEffort: spec.PlaceEffort,
			Obs: r.tr,
		}
		if spec.Overlay {
			cs.OverlayReserve = overlay.DefaultReserve
		}
		l, err := core.BuildMapped(impl.Clone(), cs)
		if err != nil {
			return nil, 0, err
		}
		p := newLayoutPool(l)
		if spec.Overlay {
			// The overlay trunks are routed into the pristine layout
			// before any campaign clones it, so every working copy
			// inherits the locked wiring; the plan itself is shared
			// read-only.
			plan, err := overlay.Build(l, overlay.DefaultChannels)
			if err != nil {
				return nil, 0, err
			}
			p.plan = plan
			p.digest = l.StateDigest()
		}
		// Charge the pool's worst-case residency: the pristine
		// reference plus the bounded free list of rolled-back copies.
		return p, (1 + maxPoolFree) * layoutBytes(l), nil
	})
	if err != nil {
		return err
	}
	r.pool = v.(*layoutPool)
	var reused bool
	r.layout, r.lease, reused = r.pool.checkout()
	// Every incremental place and route span under ApplyDelta lands in
	// the campaign trace until check-in detaches it.
	r.layout.SetObs(r.tr)
	lease := "working copy cloned"
	if reused {
		lease = "pooled copy reused, router warm"
	}
	r.c.appendEvent("place", 0, "tiled layout %v, %d tiles (%s; %s)", r.layout.Dev, len(r.layout.Tiles), how, lease)
	return nil
}

// session binds a debug session to the leased layout, with context,
// progress, the golden program, the golden-trace cache and the repair
// search's oracles threaded through, plus the overlay selector and the
// fault dictionary when the spec asks for them. A leased layout's netlist
// is the injected implementation itself, so implFP keys its memo.
func (r *run) session(implFP string) (*debug.Session, error) {
	r.enter("session")
	spec, c := r.spec, r.c
	sess, err := debug.NewSession(r.ga.golden, r.layout, spec.Seed)
	if err != nil {
		return nil, err
	}
	sess.Ctx = r.ctx
	sess.Traces = traceStore{r.s.cache}
	sess.Oracle = repair.NewOracle(oracleStore{r.s.cache}, r.ga.fp)
	sess.SimWidth = spec.SimLanes / 64
	sess.Obs = r.tr
	// Detection, observation and the repair oracle read lane word 0 of
	// the golden replay only, so the session's golden runs at width 1
	// whatever sim_lanes the cached program was compiled at.
	golden, err := r.ga.mach.ForkWidth(1)
	if err != nil {
		return nil, err
	}
	sess.SetGoldenMachine(golden)
	sess.SetGoldenFingerprint(r.ga.fp)
	sess.SetImplFingerprint(implFP)
	sess.Progress = func(ev debug.Event) {
		c.appendEvent(ev.Stage, ev.Round, "%s", ev.Msg)
	}
	if plan := r.pool.plan; spec.Overlay && plan != nil {
		// Bind a per-campaign tap selector to the working copy and turn
		// on the causal-chain localizer; both ride the campaign's layout
		// transaction, so the pool check-in rollback restores a parked
		// selection. Non-overlay campaigns keep Causal off so their
		// historical round counts and digests are unchanged.
		sess.Overlay = plan.NewSelector(r.layout)
		sess.Causal = true
		c.appendEvent("overlay", 0, "debug overlay: %d channels, %d taps, trunk wirelength %d",
			plan.Channels, plan.Taps, plan.TrunkLen)
	}
	if spec.UseDict {
		// The fault dictionary is built once per (design, detection
		// params); it lets localization skip probe insertion for errors
		// it can name from the PO-mismatch signature alone.
		dkey := fmt.Sprintf("dict/%s/w%d-c%d-s%d", r.ga.fp, spec.Words, spec.Cycles, spec.Seed)
		v, how, err := r.artifact(dkey, func() (any, int64, error) {
			dsp := r.tr.Start(obs.StageLocalizeDict)
			defer dsp.End()
			d, err := debug.BuildFaultDict(r.ga.mach, spec.Words, spec.Cycles, spec.Seed)
			if err != nil {
				return nil, 0, err
			}
			dsp.Add("dict-faults", int64(d.Faults))
			return d, d.MemoryFootprint(), nil
		})
		if err != nil {
			return nil, err
		}
		sess.Dict = v.(*debug.FaultDict)
		c.appendEvent("dict", 0, "fault dictionary: %d/%d faults detectable, %d signatures (%s)",
			sess.Dict.Detected, sess.Dict.Faults, sess.Dict.Signatures(), how)
	}
	return sess, nil
}

// traceStore adapts the artifact cache to debug.TraceStore. Golden traces
// live in memory only: a restarted daemon replays them again.
type traceStore struct{ c *Cache }

func (t traceStore) GetTrace(key string) (*sim.Trace, bool) {
	if v, ok := t.c.Get(key); ok {
		if tr, ok := v.(*sim.Trace); ok {
			return tr, true
		}
	}
	return nil, false
}

func (t traceStore) PutTrace(key string, tr *sim.Trace) {
	t.c.Put(key, tr, traceBytes(tr))
}

// oracleStore adapts the artifact cache to repair.OracleStore. The repair
// search keys three families: oracle/<golden fingerprint>/<stimulus id>
// (golden replays, shared by every lane width and suspect set),
// impl/<implementation fingerprint>/<stimulus id> (the unrepaired
// implementation's replays) and stim/<generator parameters> (derived
// stimuli). Entries fill in lazily, so stream entries are charged at
// their worst case (all nets recorded); none is spilled. The lookups are
// not counted in Result.CacheHits/CacheMisses; the repair spans carry
// oracle-hit/oracle-miss and impl-oracle-hit/impl-oracle-miss instead.
type oracleStore struct{ c *Cache }

func (o oracleStore) OracleEntry(key string, create func() (*repair.Streams, int64)) *repair.Streams {
	v, _, err := o.c.GetOrBuild(key, func() (any, int64, error) {
		st, charge := create()
		return st, charge, nil
	})
	if err != nil {
		return nil
	}
	return v.(*repair.Streams)
}

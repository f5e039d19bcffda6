package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"fpgadbg/internal/service"
)

// minCoverage is the share of replayed campaign wall time layer spans
// must cover for the per-layer numbers to account for a campaign.
const minCoverage = 0.9

// timedOps is every layer call the replay times, in report order. Each
// reports <op>.calls (per replayed campaign) and <op>.busy_ms (mean self
// time per call).
var timedOps = []string{
	"bench.build", "synth.techmap", "sim.compile", "sim.fork",
	"netlist.clone", "netlist.fingerprint", "faults.inject", "faults.scan",
	"core.build", "overlay.build", "core.clone", "core.baseline",
	"core.checkpoint", "core.rollback", "core.digest",
	"debug.dict_build", "debug.detect", "debug.localize", "debug.correct",
}

// attrMetrics are per-call means of a count a layer call returned; a
// 0/1 attribute's mean is a ratio.
var attrMetrics = []struct{ name, op, attr, unit string }{
	{"core.build.place_moves", "core.build", "place_moves", "count"},
	{"core.build.route_expansions", "core.build", "route_expansions", "count"},
	{"core.baseline.place_moves", "core.baseline", "place_moves", "count"},
	{"debug.localize.rounds", "debug.localize", "rounds", "count"},
	{"debug.localize.probes", "debug.localize", "probes", "count"},
	{"debug.localize.cad_place_moves", "debug.localize", "cad_place_moves", "count"},
	{"debug.localize.dict_hit_ratio", "debug.localize", "dict_hit", "ratio"},
	{"debug.localize.suspects", "debug.localize", "suspects", "count"},
	{"debug.localize.overlay_switches", "debug.localize", "overlay_switches", "count"},
	{"debug.localize.overlay_fallbacks", "debug.localize", "overlay_fallbacks", "count"},
	{"debug.correct.fallback_ratio", "debug.correct", "fallback", "ratio"},
	{"repair.candidates", "debug.correct", "candidates", "count"},
	{"repair.batches", "debug.correct", "batches", "count"},
	{"debug.dict_build.faults", "debug.dict_build", "faults", "count"},
	{"overlay.taps", "overlay.build", "taps", "count"},
	{"overlay.trunk_len", "overlay.build", "trunk_len", "count"},
}

// traced is the per-layer run. It replays the warm-up list (phase
// "setup") and then the window list for the given duration (phase
// "window") under spans, then runs the very same campaigns through a
// fresh untraced service: every replayed outcome must equal the
// service's result, and the service's own counters supply the service
// and store rows.
func traced(w workload, p plan, seconds float64, workdir string) (report, []span, error) {
	rp := newReplayer()
	var specs []service.Spec
	var outs []outcome
	replayFailed := 0
	replay := func(sp service.Spec, phase string) {
		rp.t.campaign, rp.t.phase = len(specs), phase
		o, err := rp.campaign(sp)
		if err != nil {
			replayFailed++
			fmt.Fprintf(os.Stderr, "replay of %s failed: %v\n", describe(sp), err)
		}
		specs = append(specs, sp)
		outs = append(outs, o)
	}
	for _, sp := range p.warmup {
		replay(sp, "setup")
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		replay(p.window[i%len(p.window)], "window")
	}
	spans := rp.t.spans
	rp = nil // release the replay's layouts and programs before the service pass
	runtime.GC()

	inst, err := openInstance(w, workdir)
	if err != nil {
		return report{}, nil, err
	}
	ck := newChecker()
	var overhead []float64
	mismatches := 0
	for i, sp := range specs {
		c := runCampaign(inst.svc, sp)
		ck.note(c)
		if c.err != nil {
			continue
		}
		if got := outcomeOf(c.res); got != outs[i] {
			mismatches++
			fmt.Fprintf(os.Stderr, "replay of %s diverged: replay %+v, service %+v\n", describe(sp), outs[i], got)
		}
		if i >= len(p.warmup) {
			overhead = append(overhead, msOf(c.latency)-c.res.WallMs)
		}
	}
	st := inst.svc.Stats()
	inst.close()
	if err := ck.verify(); err != nil {
		return report{}, nil, err
	}

	ms := layerMetrics(spans, len(specs))
	n := float64(len(specs))
	hitRatio := 0.0
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		hitRatio = float64(st.Cache.Hits) / float64(lookups)
	}
	var appends, journal float64
	if st.Store != nil {
		appends, journal = float64(st.Store.Appends)/n, float64(st.Store.JournalBytes)/n
	}
	coverage := traceCoverage(spans)
	ms = append(ms,
		metric{"service.overhead_ms_p50", median(overhead), "ms", len(overhead)},
		metric{"service.cache_hit_ratio", hitRatio, "ratio", int(st.Cache.Hits + st.Cache.Misses)},
		metric{"service.cache_evictions", float64(st.Cache.Evictions), "count", 1},
		metric{"store.appends", appends, "1/campaign", len(specs)},
		metric{"store.journal_bytes", journal, "B/campaign", len(specs)},
		metric{"trace.coverage", coverage, "ratio", len(specs)},
		metric{"trace.outcome_mismatches", float64(mismatches), "count", len(specs)},
	)
	if coverage < minCoverage {
		ck.wrong = append(ck.wrong, fmt.Sprintf("layer spans cover %.3f of replayed campaign time, want >= %.2f", coverage, minCoverage))
	}
	if mismatches > 0 {
		ck.wrong = append(ck.wrong, fmt.Sprintf("%d replayed outcomes differ from the service", mismatches))
	}
	rep := ck.report(ms)
	rep.failed += replayFailed
	return rep, spans, nil
}

// layerMetrics derives the per-call rows from the spans.
func layerMetrics(spans []span, campaigns int) []metric {
	self := selfTimes(spans)
	type agg struct {
		calls  int
		selfNs int64
		attrs  map[string]float64
	}
	ops := make(map[string]*agg)
	for i, s := range spans {
		a := ops[s.Name]
		if a == nil {
			a = &agg{attrs: make(map[string]float64)}
			ops[s.Name] = a
		}
		a.calls++
		a.selfNs += self[i]
		for k, v := range s.Attrs {
			a.attrs[k] += v
		}
	}
	get := func(op string) agg {
		if a := ops[op]; a != nil {
			return *a
		}
		return agg{}
	}
	perCall := func(sum float64, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return sum / float64(calls)
	}
	var ms []metric
	for _, op := range timedOps {
		a := get(op)
		ms = append(ms,
			metric{op + ".calls", perCall(float64(a.calls), campaigns), "1/campaign", campaigns},
			metric{op + ".busy_ms", perCall(float64(a.selfNs)/1e6, a.calls), "ms", a.calls})
	}
	for _, m := range attrMetrics {
		a := get(m.op)
		ms = append(ms, metric{m.name, perCall(a.attrs[m.attr], a.calls), m.unit, a.calls})
	}
	cor := get("debug.correct")
	survivors := 0.0
	if c := cor.attrs["candidates"]; c > 0 {
		survivors = cor.attrs["survivors"] / c
	}
	scan := get("faults.scan")
	faultsPerS := 0.0
	if scan.selfNs > 0 {
		faultsPerS = scan.attrs["faults"] / (float64(scan.selfNs) / 1e9)
	}
	return append(ms,
		metric{"repair.survivor_ratio", survivors, "ratio", cor.calls},
		metric{"faults.scan.faults_per_s", faultsPerS, "1/s", scan.calls})
}

// traceCoverage is the share of campaign root-span time that layer spans
// cover.
func traceCoverage(spans []span) float64 {
	cover := childCover(spans)
	var covered, total int64
	for i, s := range spans {
		if s.Parent < 0 {
			covered += cover[i]
			total += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

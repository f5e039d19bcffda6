package main

import (
	"fmt"
	"math/rand"
	"slices"

	"fpgadbg/internal/service"
)

// A workload is a named generator of campaign specs. The generator is a
// pure function of the seed: the service (and the traced replay) only
// ever see the specs it returns. Every knob a spec's pipeline reads is
// written out, none left to a service default, so the replay reads the
// exact values the service ran with.
type workload struct {
	name string
	// durable runs the service on an fsynced disk store.
	durable bool
	plan    func(seed int64) plan
}

// plan is one run's input: a warm-up list that runs once per fresh
// service instance, then a window list the timed loop walks through in
// order (wrapping around if it ever reaches the end).
type plan struct {
	warmup []service.Spec
	window []service.Spec
}

// windowLen is the length of every generated window list. It is far more
// than any window completes at the sizes in README.md (the busiest,
// quick-overlay, finishes ~900-1200 campaigns in 20 s).
const windowLen = 4096

var workloads = []workload{
	{name: "fresh-bugs", plan: freshBugs},
	{name: "rerun-probe", plan: rerunProbe},
	{name: "quick-overlay", durable: true, plan: quickOverlay},
	{name: "faultscan", plan: faultScan},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// debugSpec is a fully specified debug-loop campaign with the service's
// documented defaults written out.
func debugSpec(design string, faultSeed int64) service.Spec {
	return service.Spec{
		Design: design, Kind: service.KindDebug, FaultSeed: faultSeed, Seed: 1,
		Overhead: 0.20, TileFrac: 0.10, PlaceEffort: 0.5,
		Words: 8, Cycles: 4, MaxIters: 4, MaxRounds: 4, ProbesPerRound: 4,
		Patterns: 64, SimLanes: 64,
	}
}

// freshBugs: every campaign is a repair of a bug never seen before in the
// run, so each one pays technology-mapped placement and routing of a new
// implementation plus the full re-P&R baseline. All bugs are in c880: a
// fresh c499 campaign costs ~3x a c880 one and a 9sym one half, so any
// mix of them puts p50 or p90 on a thin edge between design clusters,
// where a handful of campaigns decide the percentile. The warm-up runs
// one campaign, which builds the golden program and the fault dictionary.
func freshBugs(seed int64) plan {
	r := rand.New(rand.NewSource(seed))
	used := make(map[int64]bool)
	fresh := func(design string) service.Spec {
		for {
			fs := r.Int63n(1<<31) + 1
			if !used[fs] {
				used[fs] = true
				sp := debugSpec(design, fs)
				sp.Kind = service.KindRepair
				sp.UseDict = true
				return sp
			}
		}
	}
	p := plan{warmup: []service.Spec{fresh("c880")}}
	for i := 0; i < windowLen; i++ {
		p.window = append(p.window, fresh("c880"))
	}
	return p
}

// rerunProbe: a fixed corpus of debug campaigns (dictionary and overlay
// off) rerun in seeded-shuffled passes. Layouts come from the pool, so
// the time goes to CAD probe rounds and repair validation. The corpus is
// fixed rather than drawn from the seed: the per-bug cost spread is wide
// (0.6 ms for an unexcited bug, ~230 ms for a four-round one), and a
// seed-drawn corpus small enough to warm up three times per run spreads
// p90 by 0.3–0.46 (IQR over median) across seeds. Fault seeds 2–7 give
// 18 bugs whose costs run from ~16 to ~230 ms without large gaps, so
// neither percentile sits on an edge between two cost clusters (see
// passes). The seed sets the order of the warm-up and of every pass.
func rerunProbe(seed int64) plan {
	var corpus []service.Spec
	for _, d := range []string{"9sym", "c880", "c499"} {
		for fs := int64(2); fs <= 7; fs++ {
			corpus = append(corpus, debugSpec(d, fs))
		}
	}
	return passes(rand.New(rand.NewSource(seed)), corpus)
}

// quickOverlay: debug campaigns on the pre-reserved debug overlay, so
// probe rounds are zero-CAD tap switches, on a durable service whose
// journal is fsynced three times per campaign. Campaigns are short, which
// makes the fixed per-campaign costs (queue, cache, pool checkout and
// rollback, journal appends) a visible share. Fixed corpus for the same
// reason as rerunProbe.
func quickOverlay(seed int64) plan {
	var corpus []service.Spec
	for _, d := range []string{"9sym", "c880", "c499"} {
		for fs := int64(1); fs <= 5; fs++ {
			for _, words := range []int{4, 8} {
				sp := debugSpec(d, fs)
				sp.Overlay = true
				sp.Words = words
				corpus = append(corpus, sp)
			}
		}
	}
	return passes(rand.New(rand.NewSource(seed)), corpus)
}

// faultScan: single-fault universe scans at 128 patterns × 2 cycles. No
// layout is built, so only the sim and faults layers are on the path.
// Eight specs whose costs run from ~50 to ~200 ms without large gaps:
// the combinational c499 and the sequential styr and sand at 64 and 512
// lanes, and the larger sequential s9234 and planet1 at 512 lanes. Scan
// cost does not depend on the stimulus values, so each (design, lanes)
// pair scans under a stimulus seed drawn from the run seed. The warm-up
// runs each spec once, which compiles its program.
func faultScan(seed int64) plan {
	r := rand.New(rand.NewSource(seed))
	var corpus []service.Spec
	for _, c := range []struct {
		design string
		lanes  int
	}{
		{"c499", 64}, {"c499", 512},
		{"styr", 64}, {"styr", 512},
		{"sand", 64}, {"sand", 512},
		{"s9234", 512}, {"planet1", 512},
	} {
		corpus = append(corpus, service.Spec{
			Design: c.design, Kind: service.KindFaultScan,
			FaultModel: service.FaultModelSingle,
			Seed:       r.Int63n(1<<31) + 1,
			Patterns:   128, Cycles: 2, SimLanes: c.lanes,
		})
	}
	return passes(r, corpus)
}

// passes warms up on one shuffled copy of the corpus and fills the window
// with further independently shuffled copies.
//
// The percentiles of a window are taken over all its campaigns, so a
// corpus spreads its costs evenly rather than in clusters. On a shared
// host, code runs up to ~1.5x slower for seconds at a time. A percentile
// on the edge between two clusters, or in the upper part of one, then
// jumps with the share of the window the host spent slow; over an even
// spread of costs it moves only as much as the mean does.
func passes(r *rand.Rand, corpus []service.Spec) plan {
	shuffled := func() []service.Spec {
		p := slices.Clone(corpus)
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p
	}
	p := plan{warmup: shuffled()}
	for len(p.window) < windowLen {
		p.window = append(p.window, shuffled()...)
	}
	return p
}

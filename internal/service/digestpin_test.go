package service

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// pinnedDigests are campaign digests. A digest folds in the campaign's
// tile-local CAD effort and the effort of the full place-and-route that
// built its layout (placement moves plus router expansions), so any drift
// in a full placement, an ApplyDelta region anneal or a warm-start anneal
// changes it; this table holds every placement bit-identical. The
// faultscan digests date from before the annealer moved to cached per-net
// costs. The layout-building campaigns were re-recorded when corrections
// and probe rounds got cheaper physical updates, and last when FullWork
// became the build's own effort instead of a second full
// re-place-and-route; each time their shapes (pinnedShapes) did not move.
var pinnedDigests = map[string]string{
	"9sym/debug/f3/ov=false":     "c11c10d7fb1efe15",
	"9sym/repair/f2/ov=false":    "05fb2c25349fa1c7",
	"9sym/debug/f4/ov=true":      "4d5d18833d82a9c0",
	"9sym/faultscan/f0/ov=false": "6282a77116797674",
	"c880/debug/f3/ov=false":     "5392a3069131d468",
	"c880/repair/f2/ov=false":    "1df64ff8723339d1",
	"c880/debug/f4/ov=true":      "b86904fba1993e75",
	"c880/faultscan/f0/ov=false": "86946487196fb9d7",
	"c499/debug/f3/ov=false":     "5708de254499e2e9",
	"c499/repair/f2/ov=false":    "d0eb0d3a2b93422c",
	"c499/debug/f4/ov=true":      "1efbbabe5b877442",
	"c499/faultscan/f0/ov=false": "0768b4e25d45a9f8",

	// Windowed-SEU and interconnect faultscans, recorded before their
	// scans moved onto the excitation pre-filter and the detection-only
	// two-phase scan.
	"9sym/faultscan/f0/ov=false/seu":          "07feb80983f22785",
	"9sym/faultscan/f0/ov=false/interconnect": "3e0c11ccba432c2e",
	"c880/faultscan/f0/ov=false/seu":          "973484d308ec97e1",
	"c880/faultscan/f0/ov=false/interconnect": "4c944e9fb76dab48",
	"c499/faultscan/f0/ov=false/seu":          "a8ebd8f559e2eda3",
	"c499/faultscan/f0/ov=false/interconnect": "2c2d4c776d6f9a7c",

	// Repair campaigns the candidate search wins (bit-flip, pin-swap,
	// resynth, pin-swap), recorded before the repair kind moved onto the
	// debug loop. 9sym f7 and c499 f4 differ by lane width: the batch
	// count enters the digest.
	"9sym/repair/f1/ov=false/l64":  "b7888009188c0d27",
	"9sym/repair/f1/ov=false/l256": "b7888009188c0d27",
	"9sym/repair/f4/ov=false/l64":  "a3de24e96ced0a41",
	"9sym/repair/f4/ov=false/l256": "a3de24e96ced0a41",
	"9sym/repair/f7/ov=false/l64":  "25204866aaf57cfc",
	"9sym/repair/f7/ov=false/l256": "34a65cdfb5a31155",
	"c499/repair/f4/ov=false/l64":  "a14299fd798b3f17",
	"c499/repair/f4/ov=false/l256": "8c40c0102af587ef",
}

// pinSpecs covers every layout-building campaign kind (debug with CAD
// probe rounds, repair, overlay) plus layout-free faultscans (the default
// single-fault universe, windowed SEUs and interconnect faults) on three
// catalog designs.
func pinSpecs() []Spec {
	var specs []Spec
	for _, d := range []string{"9sym", "c880", "c499"} {
		base := Spec{
			Design: d, Seed: 1, Overhead: 0.20, TileFrac: 0.25, PlaceEffort: 0.3,
			Words: 4, Cycles: 2, MaxIters: 4, MaxRounds: 4, ProbesPerRound: 4,
		}
		dbg := base
		dbg.Kind, dbg.FaultSeed = KindDebug, 3
		rep := base
		rep.Kind, rep.FaultSeed, rep.PlaceEffort = KindRepair, 2, 0.5
		ov := base
		ov.Kind, ov.FaultSeed, ov.Overlay = KindDebug, 4, true
		fs := Spec{Design: d, Kind: KindFaultScan, Seed: 1, Patterns: 64, Cycles: 2}
		seu := fs
		seu.FaultModel = FaultModelSEU
		ic := fs
		ic.FaultModel = FaultModelInterconnect
		specs = append(specs, dbg, rep, ov, fs, seu, ic)
		for _, f := range searchWonRepairs[d] {
			for _, lanes := range []int{64, 256} {
				sr := base
				sr.Kind, sr.FaultSeed, sr.SimLanes = KindRepair, f, lanes
				specs = append(specs, sr)
			}
		}
	}
	return specs
}

// searchWonRepairs are the fault seeds whose repair campaigns the
// candidate search wins (bit-flip, pin-swap, resynth) rather than the
// golden-copy fallback; each is pinned at 64 and 256 lanes.
var searchWonRepairs = map[string][]int64{
	"9sym": {1, 4, 7},
	"c499": {4},
}

func pinName(sp Spec) string {
	name := fmt.Sprintf("%s/%s/f%d/ov=%v", sp.Design, sp.Kind, sp.FaultSeed, sp.Overlay)
	if sp.FaultModel != "" {
		name += "/" + sp.FaultModel
	}
	if sp.SimLanes != 0 {
		name += fmt.Sprintf("/l%d", sp.SimLanes)
	}
	return name
}

func TestCampaignDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty-six campaigns on three designs")
	}
	svc := New(Config{Workers: 2})
	defer svc.Close()
	specs := pinSpecs()
	ids := make([]string, len(specs))
	for i, sp := range specs {
		id, err := svc.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i, sp := range specs {
		res, err := svc.Wait(ctx, ids[i])
		if err != nil {
			t.Fatalf("%s: %v", pinName(sp), err)
		}
		name := pinName(sp)
		if want, ok := pinnedShapes[name]; !ok || !want.admits(res) {
			t.Errorf("%q: %s, // shape drifted (want %s)", name, shapeOf(res), want)
		}
		if want := pinnedDigests[name]; res.Digest != want {
			t.Errorf("%q: %q, // digest drifted (want %q); tile work %.0f, full work %.0f",
				name, res.Digest, want, res.TileWork, res.FullWork)
		}
	}
}

// campaignShape is what a pinned campaign found and did, without the CAD
// effort it paid: detection, localization, the corrections and how they
// were won, and the overlay's use. A change that only makes physical
// updates cheaper moves a campaign's digest (TileWork enters it) but
// must leave its shape alone, and may lower its TileWork but never raise
// it; pinnedShapes holds it to that.
type campaignShape struct {
	Detected, Clean                   bool
	Iterations, Rounds, Probes        int
	Fixed                             []string
	Dict, Repaired                    int
	Kind                              string
	Candidates, Survivors, Batches    int
	ECOVerified, Fallback             bool
	OverlaySwitches, OverlayFallbacks int
	// MaxTileWork bounds the campaign's tile-local CAD work from above.
	MaxTileWork float64
}

func shapeOf(r *Result) campaignShape {
	return campaignShape{
		Detected: r.Detected, Clean: r.Clean,
		Iterations: r.Iterations, Rounds: r.Rounds, Probes: r.ProbesInserted,
		Fixed: r.Fixed, Dict: r.DictResolved, Repaired: r.Repaired, Kind: r.RepairKind,
		Candidates: r.Candidates, Survivors: r.Survivors, Batches: r.CandidateBatches,
		ECOVerified: r.ECOVerified, Fallback: r.RepairFallback,
		OverlaySwitches: r.OverlaySwitches, OverlayFallbacks: r.OverlayFallbacks,
		MaxTileWork: r.TileWork,
	}
}

// admits reports whether r has this shape and no more tile work than
// MaxTileWork.
func (s campaignShape) admits(r *Result) bool {
	got := shapeOf(r)
	got.MaxTileWork = s.MaxTileWork
	return reflect.DeepEqual(got, s) && r.TileWork <= s.MaxTileWork
}

// String renders the shape as a pinnedShapes literal.
func (s campaignShape) String() string {
	return fmt.Sprintf("{%v, %v, %d, %d, %d, %#v, %d, %d, %q, %d, %d, %d, %v, %v, %d, %d, %.0f}",
		s.Detected, s.Clean, s.Iterations, s.Rounds, s.Probes, s.Fixed, s.Dict, s.Repaired, s.Kind,
		s.Candidates, s.Survivors, s.Batches, s.ECOVerified, s.Fallback,
		s.OverlaySwitches, s.OverlayFallbacks, s.MaxTileWork)
}

// pinnedShapes are the pinned campaigns' shapes (field order as in
// campaignShape), recorded while every correction still paid a tile
// re-place-and-route. A re-recorded digest must keep its shape and may
// only lower its tile work.
var pinnedShapes = map[string]campaignShape{
	"9sym/debug/f3/ov=false":                  {true, true, 1, 3, 10, []string{"m_9sym/f_c0_c0_c0_c0~7"}, 0, 1, "resynth", 44, 1, 2, true, false, 0, 0, 10084},
	"9sym/repair/f2/ov=false":                 {true, true, 1, 4, 16, []string{"m_9sym/f_c0_c0_c0_c0~7"}, 0, 0, "", 0, 0, 0, false, true, 0, 0, 48951},
	"9sym/debug/f4/ov=true":                   {true, true, 1, 2, 5, []string{"m_9sym/f_c1_c1_c1_c0~489"}, 0, 1, "pin-swap", 11, 2, 2, true, false, 3, 0, 2403},
	"9sym/faultscan/f0/ov=false":              {true, false, 0, 0, 0, []string(nil), 0, 0, "", 0, 0, 0, false, false, 0, 0, 0},
	"9sym/faultscan/f0/ov=false/seu":          {true, false, 0, 0, 0, []string(nil), 0, 0, "", 0, 0, 0, false, false, 0, 0, 0},
	"9sym/faultscan/f0/ov=false/interconnect": {true, false, 0, 0, 0, []string(nil), 0, 0, "", 0, 0, 0, false, false, 0, 0, 0},
	"9sym/repair/f1/ov=false/l64":             {true, true, 1, 0, 0, []string{"m_9sym/f_c1_c0_c1_c0~355"}, 1, 1, "bit-flip", 37, 2, 2, true, false, 0, 0, 1498},
	"9sym/repair/f1/ov=false/l256":            {true, true, 1, 0, 0, []string{"m_9sym/f_c1_c0_c1_c0~355"}, 1, 1, "bit-flip", 37, 2, 2, true, false, 0, 0, 1498},
	"9sym/repair/f4/ov=false/l64":             {true, true, 1, 0, 0, []string{"m_9sym/f_c1_c1_c1_c0~489"}, 1, 1, "pin-swap", 11, 2, 2, true, false, 0, 0, 2403},
	"9sym/repair/f4/ov=false/l256":            {true, true, 1, 0, 0, []string{"m_9sym/f_c1_c1_c1_c0~489"}, 1, 1, "pin-swap", 11, 2, 2, true, false, 0, 0, 2403},
	"9sym/repair/f7/ov=false/l64":             {true, true, 1, 4, 16, []string{"m_9sym/f_c1~2"}, 0, 1, "resynth", 422, 1, 8, true, false, 0, 0, 27874},
	"9sym/repair/f7/ov=false/l256":            {true, true, 1, 4, 16, []string{"m_9sym/f_c1~2"}, 0, 1, "resynth", 422, 1, 3, true, false, 0, 0, 27874},
	"c880/debug/f3/ov=false":                  {true, true, 1, 4, 13, []string{"m_c880/res/l0_3/m0.99"}, 0, 1, "resynth", 23, 1, 2, true, false, 0, 0, 26853},
	"c880/repair/f2/ov=false":                 {true, true, 1, 4, 14, []string{"m_c880/res/l0_3/m0.99"}, 0, 1, "resynth", 22, 1, 2, true, false, 0, 0, 39171},
	"c880/debug/f4/ov=true":                   {true, true, 1, 2, 6, []string{"m_c880/res/l0_3/m0.99"}, 0, 1, "resynth", 22, 2, 2, true, false, 3, 0, 9454},
	"c880/faultscan/f0/ov=false":              {true, false, 0, 0, 0, []string(nil), 0, 0, "", 0, 0, 0, false, false, 0, 0, 0},
	"c880/faultscan/f0/ov=false/seu":          {true, false, 0, 0, 0, []string(nil), 0, 0, "", 0, 0, 0, false, false, 0, 0, 0},
	"c880/faultscan/f0/ov=false/interconnect": {true, false, 0, 0, 0, []string(nil), 0, 0, "", 0, 0, 0, false, false, 0, 0, 0},
	"c499/debug/f3/ov=false":                  {true, true, 1, 3, 11, []string{"m_c499/dec28~202"}, 0, 1, "resynth", 110, 1, 3, true, false, 0, 0, 75418},
	"c499/repair/f2/ov=false":                 {true, true, 1, 3, 11, []string{"m_c499/dec28~202"}, 0, 0, "", 0, 0, 0, false, true, 0, 0, 140811},
	"c499/debug/f4/ov=true":                   {true, true, 1, 1, 3, []string{"m_c499/dec28~202"}, 0, 1, "pin-swap", 21, 1, 2, true, false, 2, 0, 15745},
	"c499/faultscan/f0/ov=false":              {true, false, 0, 0, 0, []string(nil), 0, 0, "", 0, 0, 0, false, false, 0, 0, 0},
	"c499/faultscan/f0/ov=false/seu":          {true, false, 0, 0, 0, []string(nil), 0, 0, "", 0, 0, 0, false, false, 0, 0, 0},
	"c499/faultscan/f0/ov=false/interconnect": {true, false, 0, 0, 0, []string(nil), 0, 0, "", 0, 0, 0, false, false, 0, 0, 0},
	"c499/repair/f4/ov=false/l64":             {true, true, 1, 3, 11, []string{"m_c499/dec28~202"}, 0, 1, "pin-swap", 109, 1, 3, true, false, 0, 0, 75418},
	"c499/repair/f4/ov=false/l256":            {true, true, 1, 3, 11, []string{"m_c499/dec28~202"}, 0, 1, "pin-swap", 109, 1, 2, true, false, 0, 0, 75418},
}

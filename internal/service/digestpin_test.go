package service

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// pinnedDigests are campaign digests recorded before the annealer moved
// to cached per-net costs and the full re-P&R baseline moved off the
// campaign's critical path. A digest folds in the tile-local and baseline
// CAD effort (placement moves plus router expansions), so any drift in a
// full placement, an ApplyDelta region anneal or a warm-start anneal
// changes it. Both changes are required to keep every placement
// bit-identical; this table holds them to that.
var pinnedDigests = map[string]string{
	"9sym/debug/f3/ov=false":     "8b77eb07fdb95566",
	"9sym/repair/f2/ov=false":    "4a4b68a09127acb3",
	"9sym/debug/f4/ov=true":      "75031991da741595",
	"9sym/faultscan/f0/ov=false": "6282a77116797674",
	"c880/debug/f3/ov=false":     "6dbd207da31b0c01",
	"c880/repair/f2/ov=false":    "a1251a4d91ca4301",
	"c880/debug/f4/ov=true":      "c8885d783087a7ec",
	"c880/faultscan/f0/ov=false": "86946487196fb9d7",
	"c499/debug/f3/ov=false":     "9d2d3c608a0451bb",
	"c499/repair/f2/ov=false":    "271407e464d8b48d",
	"c499/debug/f4/ov=true":      "6af253355fef6ecf",
	"c499/faultscan/f0/ov=false": "0768b4e25d45a9f8",
}

// pinSpecs covers every layout-building campaign kind (debug with CAD
// probe rounds, repair, overlay) plus a layout-free faultscan on three
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
		specs = append(specs, dbg, rep, ov, fs)
	}
	return specs
}

func pinName(sp Spec) string {
	return fmt.Sprintf("%s/%s/f%d/ov=%v", sp.Design, sp.Kind, sp.FaultSeed, sp.Overlay)
}

func TestCampaignDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve campaigns on three designs")
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
		if want := pinnedDigests[name]; res.Digest != want {
			t.Errorf("%q: %q, // digest drifted (want %q); tile work %.0f, full work %.0f",
				name, res.Digest, want, res.TileWork, res.FullWork)
		}
	}
}

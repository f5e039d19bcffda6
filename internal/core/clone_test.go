package core

import (
	"testing"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/synth"
)

func cloneTestLayout(t *testing.T) *Layout {
	t.Helper()
	info, err := bench.ByName("9sym")
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := synth.TechMap(info.Build())
	if err != nil {
		t.Fatal(err)
	}
	l, err := BuildMapped(mapped, Spec{Overhead: 0.25, TileFrac: 0.25, Seed: 1, PlaceEffort: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCloneIndependence(t *testing.T) {
	orig := cloneTestLayout(t)
	origCLBs := orig.NumCLBs()
	origCells := orig.NL.NumLiveCells()
	origRoutes := len(orig.Routes)

	cl := orig.Clone()
	if err := cl.Check(); err != nil {
		t.Fatalf("clone violates layout invariants: %v", err)
	}
	if cl.NumCLBs() != origCLBs || len(cl.Routes) != origRoutes {
		t.Fatalf("clone shape differs: %d/%d CLBs, %d/%d routes",
			cl.NumCLBs(), origCLBs, len(cl.Routes), origRoutes)
	}

	// Mutate the clone: insert an observation stage through the tiling
	// engine, exactly like a debugging campaign would.
	var target netlist.NetID = netlist.NilNet
	for ni := range cl.NL.Nets {
		if cl.NL.Nets[ni].Driver != netlist.NilCell {
			target = netlist.NetID(ni)
			break
		}
	}
	d := cl.NL.AddNet("clone_obs_d")
	q := cl.NL.AddNet("clone_obs_q")
	lut, err := cl.NL.AddLUT("clone_obs/buf", logic.BufN(), []netlist.NetID{target}, d)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := cl.NL.AddDFF("clone_obs/ff", d, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ApplyDelta(Delta{Added: []netlist.CellID{lut, ff}}); err != nil {
		t.Fatal(err)
	}

	// The original must be completely untouched.
	if orig.NL.NumLiveCells() != origCells {
		t.Fatalf("clone mutation leaked into original netlist: %d cells, want %d",
			orig.NL.NumLiveCells(), origCells)
	}
	if _, ok := orig.NL.CellByName("clone_obs/buf"); ok {
		t.Fatal("inserted cell visible in original")
	}
	if orig.NumCLBs() != origCLBs {
		t.Fatalf("original CLB count changed: %d, want %d", orig.NumCLBs(), origCLBs)
	}
	if err := orig.Check(); err != nil {
		t.Fatalf("original invariants broken after clone mutation: %v", err)
	}
	if err := cl.Check(); err != nil {
		t.Fatalf("clone invariants broken after delta: %v", err)
	}
}

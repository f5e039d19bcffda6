package bitstream

import (
	"math/rand"
	"slices"
	"testing"

	"fpgadbg/internal/core"
	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/route"
)

func layout(t testing.TB, seed int64) *core.Layout {
	t.Helper()
	r := rand.New(rand.NewSource(4321))
	nl := netlist.New("bs")
	var nets []netlist.NetID
	for i := 0; i < 8; i++ {
		nets = append(nets, nl.AddPI(""))
	}
	for i := 0; i < 250; i++ {
		k := 2 + r.Intn(3)
		fanin := make([]netlist.NetID, k)
		for j := range fanin {
			fanin[j] = nets[r.Intn(len(nets))]
		}
		out := nl.AddNet("")
		if r.Intn(8) == 0 {
			nl.MustAddDFF("", fanin[0], out, uint8(r.Intn(2)))
		} else {
			cov := logic.Cover{N: k}
			for c := 0; c < 1+r.Intn(2); c++ {
				var cu logic.Cube
				for v := 0; v < k; v++ {
					if r.Intn(2) == 0 {
						cu = cu.WithLit(v, r.Intn(2) == 1)
					}
				}
				cov.Cubes = append(cov.Cubes, cu)
			}
			nl.MustAddLUT("", cov, fanin, out)
		}
		nets = append(nets, out)
	}
	for i := 0; i < 5; i++ {
		nl.MarkPO(nets[len(nets)-1-i*2])
	}
	l, err := core.Build(nl, core.Spec{Seed: seed, PlaceEffort: 0.25, TileFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestFullImageDeterministic(t *testing.T) {
	l := layout(t, 1)
	a, err := Full(l)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Full(l)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) || a.Digest() != b.Digest() {
		t.Fatal("same layout gave different images")
	}
	if a.Size() == 0 || len(a.Frames) != len(l.Tiles)+1 {
		t.Fatalf("image shape wrong: %d frames, %d bytes", len(a.Frames), a.Size())
	}
}

// rewire moves input 0 of the first 2-input LUT onto a primary input
// with no pin at the LUT's CLB, chosen by whether its route already
// passes through the LUT's tile. It returns the LUT, or NilCell when no
// such input exists.
func rewire(t *testing.T, l *core.Layout, throughTile bool) netlist.CellID {
	t.Helper()
	for ci := range l.NL.Cells {
		c := &l.NL.Cells[ci]
		if c.Dead || c.Kind != netlist.KindLUT || len(c.Fanin) != 2 {
			continue
		}
		id := netlist.CellID(ci)
		site := l.CLBLoc[l.Packed.CellCLB[id]]
		rect := l.Tiles[l.TileOf(site)].Rect
		for _, pi := range l.NL.PIs {
			rn := l.Routes[pi]
			if rn == nil || slices.Contains(rn.Pins, site) {
				continue
			}
			through := slices.ContainsFunc(rn.Route, func(e route.EdgeID) bool {
				a, b := l.Grid.EdgeEnds(e)
				return rect.Contains(a) || rect.Contains(b)
			})
			if through != throughTile {
				continue
			}
			if err := l.NL.SetFanin(id, 0, pi); err != nil {
				t.Fatal(err)
			}
			return id
		}
		return netlist.NilCell
	}
	return netlist.NilCell
}

// TestPartialReconfiguration rewires a LUT input onto a net new to its
// CLB, which re-places and re-routes the LUT's tile, and checks that the
// frames the change report names carry the whole change: stitching them
// onto the old image reproduces the new full image. A net whose wiring
// already passes through the tile is re-routed inside it, so the tile's
// own frame is enough; a net whose wiring never reaches it keeps that
// wiring and extends it, which rewrites frames beyond the tile.
func TestPartialReconfiguration(t *testing.T) {
	for _, tc := range []struct {
		name        string
		throughTile bool
	}{{"net through the tile", true}, {"net outside the tile", false}} {
		t.Run(tc.name, func(t *testing.T) {
			l := layout(t, 2)
			before, err := Full(l)
			if err != nil {
				t.Fatal(err)
			}
			target := rewire(t, l, tc.throughTile)
			if target == netlist.NilCell {
				t.Fatal("no primary input to rewire onto")
			}
			pi := l.NL.Cells[target].Fanin[0]
			old := slices.Clone(l.Routes[pi].Route)
			rep, err := l.ApplyDelta(core.Delta{Modified: []netlist.CellID{target}})
			if err != nil {
				t.Fatal(err)
			}
			if !tc.throughTile {
				for _, e := range old {
					if !slices.Contains(l.Routes[pi].Route, e) {
						t.Fatalf("the input's wiring outside the tile lost edge %d", e)
					}
				}
			}
			if rep.Effort.CellsPlaced == 0 {
				t.Fatalf("rewire did not re-place its tile: %+v", rep)
			}
			tileLocal := len(rep.RewiredTiles) == 0 && !rep.GlobalRewired
			if tileLocal != tc.throughTile {
				t.Fatalf("tile-local = %v, want %v (affected %v, rewired %v, global %v)",
					tileLocal, tc.throughTile, rep.AffectedTiles, rep.RewiredTiles, rep.GlobalRewired)
			}
			after, err := Full(l)
			if err != nil {
				t.Fatal(err)
			}
			if after.Equal(before) {
				t.Fatal("change did not alter the bitstream")
			}
			partial, err := Partial(l, Frames(rep))
			if err != nil {
				t.Fatal(err)
			}
			stitched := Stitch(before, partial)
			if !stitched.Equal(after) {
				// Identify which frame diverged for the failure message.
				for k := range after.Frames {
					if string(after.Frames[k]) != string(stitched.Frames[k]) {
						t.Fatalf("stitched partial misses changes in frame %d (frames %v)", k, Frames(rep))
					}
				}
				t.Fatal("stitched image differs in frame set")
			}
			// The partial image is a fraction of the full one.
			if partial.Size() >= before.Size() {
				t.Fatalf("partial (%d B) not smaller than full (%d B)", partial.Size(), before.Size())
			}
		})
	}
}

func TestPartialRejectsBadTile(t *testing.T) {
	l := layout(t, 3)
	if _, err := Partial(l, []int{999}); err == nil {
		t.Fatal("bad tile accepted")
	}
}

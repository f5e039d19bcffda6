package core

import (
	"math/rand"
	"slices"
	"testing"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/route"
	"fpgadbg/internal/sim"
)

// testDesign builds a deterministic random sequential design with roughly
// the requested number of 4-LUT-sized nodes.
func testDesign(t testing.TB, nodes int, seed int64) *netlist.Netlist {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nl := netlist.New("tdesign")
	var nets []netlist.NetID
	for i := 0; i < 8; i++ {
		nets = append(nets, nl.AddPI(""))
	}
	for i := 0; i < nodes; i++ {
		k := 2 + r.Intn(3)
		fanin := make([]netlist.NetID, k)
		for j := range fanin {
			fanin[j] = nets[r.Intn(len(nets))]
		}
		out := nl.AddNet("")
		if r.Intn(7) == 0 {
			nl.MustAddDFF("", fanin[0], out, 0)
		} else {
			cov := logic.Cover{N: k}
			for c := 0; c < 1+r.Intn(3); c++ {
				var cu logic.Cube
				for v := 0; v < k; v++ {
					switch r.Intn(3) {
					case 0:
						cu = cu.WithLit(v, false)
					case 1:
						cu = cu.WithLit(v, true)
					}
				}
				cov.Cubes = append(cov.Cubes, cu)
			}
			nl.MustAddLUT("", cov, fanin, out)
		}
		nets = append(nets, out)
	}
	for i := 0; i < 6; i++ {
		nl.MarkPO(nets[len(nets)-1-i*3])
	}
	if err := nl.CheckDriven(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func buildTest(t testing.TB, nodes int, spec Spec) *Layout {
	t.Helper()
	if spec.PlaceEffort == 0 {
		spec.PlaceEffort = 0.25 // keep unit tests quick
	}
	l, err := Build(testDesign(t, nodes, 12345), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBuildSmallDesign(t *testing.T) {
	l := buildTest(t, 120, Spec{Seed: 1})
	if l.NumCLBs() == 0 {
		t.Fatal("no CLBs")
	}
	// Slack: device must offer at least 20% free sites.
	if l.Dev.NumCLBSites() < int(float64(l.NumCLBs())*1.2) {
		t.Fatalf("device %v lacks 20%% slack over %d CLBs", l.Dev, l.NumCLBs())
	}
	if len(l.Tiles) < 4 {
		t.Fatalf("expected several tiles, got %d", len(l.Tiles))
	}
	if l.BuildEffort.Work() == 0 {
		t.Fatal("no build effort recorded")
	}
}

func TestAreaOverheadMatchesSpec(t *testing.T) {
	for _, ov := range []float64{0.10, 0.20, 0.30} {
		l := buildTest(t, 80, Spec{Seed: 2, Overhead: ov})
		got := float64(l.Dev.NumCLBSites())/float64(l.NumCLBs()) - 1
		if got < ov-0.001 {
			t.Fatalf("overhead %.2f requested, layout has %.3f", ov, got)
		}
		// Must not wildly exceed the request (square-sizing granularity +
		// one row at most).
		if got > ov+0.45 {
			t.Fatalf("overhead %.2f requested, layout has %.3f (oversized)", ov, got)
		}
	}
}

func TestTilePartitionAndAdjacency(t *testing.T) {
	l := buildTest(t, 120, Spec{Seed: 3, TileFrac: 0.1})
	// Every site maps to exactly one tile (Check covers this); adjacency
	// is symmetric.
	for ti := range l.Tiles {
		for _, nb := range l.Neighbors(ti) {
			found := false
			for _, back := range l.Neighbors(nb) {
				if back == ti {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d -> %d", ti, nb)
			}
		}
	}
}

func TestAffectedTilesMonotonic(t *testing.T) {
	l := buildTest(t, 400, Spec{Seed: 4, TileFrac: 0.1})
	totalFree := 0
	for _, f := range l.TileFree() {
		totalFree += f
	}
	if totalFree < 4 {
		t.Fatalf("design has almost no slack (%d free sites)", totalFree)
	}
	prev := 0
	for _, size := range []int{1, totalFree / 4, totalFree / 2, totalFree} {
		if size < 1 {
			continue
		}
		tiles, err := l.AffectedTiles(0, size)
		if err != nil {
			t.Fatalf("size %d (of %d free): %v", size, totalFree, err)
		}
		if len(tiles) < prev {
			t.Fatalf("affected tiles shrank: %d CLBs -> %d tiles (prev %d)", size, len(tiles), prev)
		}
		prev = len(tiles)
	}
	// Asking for more than the device's total free space must fail.
	if _, err := l.AffectedTiles(0, totalFree+1); err == nil {
		t.Fatal("impossible request accepted")
	}
	if _, err := l.AffectedTiles(999, 1); err == nil {
		t.Fatal("bad seed tile accepted")
	}
}

func TestMaxTestLogicDecreasing(t *testing.T) {
	l := buildTest(t, 120, Spec{Seed: 5, TileFrac: 0.1})
	prev := 1 << 30
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		m := l.MaxTestLogic(k)
		if m > prev {
			t.Fatalf("max test logic grew with more points: k=%d m=%d prev=%d", k, m, prev)
		}
		prev = m
	}
	if l.MaxTestLogic(0) != 0 {
		t.Fatal("k=0 should be 0")
	}
	if c1, c2 := l.MaxTestLogicClustered(1), l.MaxTestLogicClustered(4); c2 > c1 {
		t.Fatal("clustered variant must also decrease")
	}
}

// insertObservers taps n internal nets with buffer LUTs feeding a new
// exported flag net each, mimicking observation-logic insertion.
func insertObservers(t *testing.T, l *Layout, n int) Delta {
	t.Helper()
	var added []netlist.CellID
	count := 0
	for ni := range l.NL.Nets {
		if count >= n {
			break
		}
		net := netlist.NetID(ni)
		if l.NL.Nets[ni].Dead || l.NL.Nets[ni].Driver == netlist.NilCell {
			continue
		}
		flag := l.NL.AddNet(l.freshName("obs"))
		id, err := l.NL.AddLUT(l.freshName("obslut"), logic.BufN(), []netlist.NetID{net}, flag)
		if err != nil {
			t.Fatal(err)
		}
		l.NL.MarkPO(flag)
		added = append(added, id)
		count++
	}
	if count < n {
		t.Fatalf("only found %d observable nets", count)
	}
	return Delta{Added: added}
}

func TestApplyDeltaInsertObservationLogic(t *testing.T) {
	l := buildTest(t, 120, Spec{Seed: 6, TileFrac: 0.1})
	preOut := outputsSnapshot(t, l, 7)
	d := insertObservers(t, l, 3)
	rep, err := l.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Check(); err != nil {
		t.Fatalf("layout invalid after delta: %v", err)
	}
	if len(rep.AffectedTiles) == 0 || len(rep.NewCLBs) == 0 {
		t.Fatalf("report %+v lacks affected tiles or new CLBs", rep)
	}
	if rep.Effort.Work() == 0 {
		t.Fatal("no effort recorded")
	}
	// Function of the original outputs is untouched by observation logic.
	postOut := outputsSnapshot(t, l, 7)
	for name, w := range preOut {
		if postOut[name] != w {
			t.Fatalf("output %q changed after observation insert", name)
		}
	}
}

// outputsSnapshot simulates the layout's netlist on a fixed stimulus.
func outputsSnapshot(t *testing.T, l *Layout, seed int64) map[string]uint64 {
	t.Helper()
	m, err := sim.Compile(l.NL)
	if err != nil {
		t.Fatal(err)
	}
	pis := l.NL.SortedPINames()
	if err := m.BindNames(pis); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	stim := make([][]uint64, 4)
	for cyc := range stim {
		stim[cyc] = make([]uint64, len(pis))
		for j := range pis {
			stim[cyc][j] = r.Uint64()
		}
	}
	tr := m.RunTrace(stim)
	out := make(map[string]uint64)
	for cyc := range stim {
		for i, name := range m.PONames() {
			out[name] ^= tr.Out(cyc, i) + uint64(cyc)
		}
	}
	return out
}

func TestApplyDeltaLeavesOutsideUntouched(t *testing.T) {
	l := buildTest(t, 150, Spec{Seed: 8, TileFrac: 0.08})
	// Rewire one LUT input (a small debugging change that re-places its
	// tile). The netlist edit moves nothing physical, so the placement
	// before the update can be compared with the one after.
	d := rewireOneCell(t, l)
	seedTile := l.TileOf(l.CLBLoc[l.Packed.CellCLB[d.Modified[0]]])
	locs := slices.Clone(l.CLBLoc)
	rep, err := l.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Effort.CellsPlaced == 0 {
		t.Fatalf("rewire did not re-place its tile: %+v", rep)
	}
	if !containsTile(rep.AffectedTiles, seedTile) {
		t.Fatalf("seed tile %d not in affected set %v", seedTile, rep.AffectedTiles)
	}
	// Every CLB outside the affected region kept its exact location.
	region := l.RegionOf(rep.AffectedTiles)
	for i, p := range locs {
		if !l.Packed.Empty(i) && !region.Contains(p) && l.CLBLoc[i] != p {
			t.Fatalf("clb%d outside the affected tiles moved: %v -> %v", i, p, l.CLBLoc[i])
		}
	}
}

func TestFrozenOutsideInvariant(t *testing.T) {
	l := buildTest(t, 150, Spec{Seed: 9, TileFrac: 0.08})
	// Rewire one LUT input (a change that re-places its tile) and predict
	// its region generously (the worst case ApplyDelta can use: seed + 2
	// rings). The netlist edit moves nothing physical yet.
	d := rewireOneCell(t, l)
	seedTile := l.TileOf(l.CLBLoc[l.Packed.CellCLB[d.Modified[0]]])
	generous := []int{seedTile}
	for i := 0; i < 2; i++ {
		generous = l.growAffected(generous)
	}
	region := l.RegionOf(generous)
	before := l.FrozenOutside(region)
	movedNet := l.NL.Cells[d.Modified[0]].Fanin[0]
	movedRoute := slices.Clone(l.Routes[movedNet].Route)

	rep, err := l.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range rep.AffectedTiles {
		if !containsTile(generous, at) {
			t.Skipf("change spread beyond the generous region (%v vs %v)", rep.AffectedTiles, generous)
		}
	}
	// The net the LUT input moved onto now reaches into the region, so it
	// leaves the snapshot; its old wiring must still be there, extended.
	moved := "net:" + l.NL.NetName(movedNet)
	if _, ok := before[moved]; !ok {
		t.Fatalf("%s already reached the region", moved)
	}
	for _, e := range movedRoute {
		if !slices.Contains(l.Routes[movedNet].Route, e) {
			t.Fatalf("%s lost outside edge %d: %v -> %v", moved, e, movedRoute, l.Routes[movedNet].Route)
		}
	}
	after := l.FrozenOutside(region)
	for k, v := range before {
		if k != moved && after[k] != v {
			t.Fatalf("outside state %q changed: %q -> %q", k, v, after[k])
		}
	}
}

// TestExtendedNetsKeepOutsideWiring moves a LUT input onto a primary
// input whose wiring never reaches the LUT's tile, for every 2-input LUT
// and every such input. The update must keep every edge that wiring had
// and only add to it: re-routing the whole net from scratch would move
// wiring outside the affected tiles.
func TestExtendedNetsKeepOutsideWiring(t *testing.T) {
	l := buildTest(t, 150, Spec{Seed: 9, TileFrac: 0.08})
	pristine := l.StateDigest()
	cases := 0
	for ci := range l.NL.Cells {
		c := &l.NL.Cells[ci]
		if c.Dead || c.Kind != netlist.KindLUT || len(c.Fanin) != 2 {
			continue
		}
		id := netlist.CellID(ci)
		region := l.RegionOf([]int{l.TileOf(l.CLBLoc[l.Packed.CellCLB[id]])})
		for _, pi := range l.NL.PIs {
			rn := l.Routes[pi]
			if rn == nil || slices.ContainsFunc(rn.Route, func(e route.EdgeID) bool {
				a, b := l.Grid.EdgeEnds(e)
				return region.Contains(a) || region.Contains(b)
			}) {
				continue
			}
			old := slices.Clone(rn.Route)
			cp := l.Checkpoint()
			if err := l.NL.SetFanin(id, 0, pi); err != nil {
				t.Fatal(err)
			}
			rep, err := l.ApplyDelta(Delta{Modified: []netlist.CellID{id}})
			if err != nil {
				t.Fatalf("%s onto %s: %v", c.Name, l.NL.NetName(pi), err)
			}
			cases++
			if len(rep.AffectedTiles) == 1 {
				for _, e := range old {
					if !slices.Contains(l.Routes[pi].Route, e) {
						t.Fatalf("%s onto %s: wiring %v became %v", c.Name, l.NL.NetName(pi), old, l.Routes[pi].Route)
					}
				}
			}
			if err := l.Check(); err != nil {
				t.Fatal(err)
			}
			if err := l.Rollback(cp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cases < 10 {
		t.Fatalf("only %d rewire(s) onto an outside net", cases)
	}
	if got := l.StateDigest(); got != pristine {
		t.Fatalf("rollback digest %s != pristine %s", got, pristine)
	}
}

func TestTileEffortBelowFullEffort(t *testing.T) {
	l := buildTest(t, 150, Spec{Seed: 10, TileFrac: 0.05})
	d := insertObservers(t, l, 1)
	rep, err := l.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	full, err := l.FullRePlaceRoute(99)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Effort.Work() >= full.Work() {
		t.Fatalf("tile-local change (%v) not cheaper than full re-P&R (%v)", rep.Effort, full)
	}
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalBaselineBetweenTileAndFull(t *testing.T) {
	l := buildTest(t, 150, Spec{Seed: 11, TileFrac: 0.05})
	d := insertObservers(t, l, 1)
	rep, err := l.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := l.IncrementalChange(rep.AffectedTiles, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	full, err := l.FullRePlaceRoute(100)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Work() >= full.Work() {
		t.Fatalf("incremental (%v) should beat full (%v)", inc, full)
	}
	if inc.CellsPlaced < rep.Effort.CellsPlaced {
		t.Fatalf("incremental should touch at least as many cells: %d vs %d", inc.CellsPlaced, rep.Effort.CellsPlaced)
	}
}

func TestBuildDeterminism(t *testing.T) {
	l1 := buildTest(t, 100, Spec{Seed: 12})
	l2 := buildTest(t, 100, Spec{Seed: 12})
	if l1.BuildEffort.PlaceMoves != l2.BuildEffort.PlaceMoves ||
		l1.BuildEffort.RouteExpansions != l2.BuildEffort.RouteExpansions {
		t.Fatalf("builds differ: %v vs %v", l1.BuildEffort, l2.BuildEffort)
	}
	for i := range l1.CLBLoc {
		if l1.CLBLoc[i] != l2.CLBLoc[i] {
			t.Fatalf("CLB %d placed differently", i)
		}
	}
}

func TestTileSizeSweep(t *testing.T) {
	for _, frac := range []float64{0.025, 0.05, 0.15, 0.25} {
		l := buildTest(t, 150, Spec{Seed: 13, TileFrac: frac})
		want := int(1/frac + 0.5)
		got := len(l.Tiles)
		if got < want/2 || got > want*2 {
			t.Fatalf("frac %.3f: %d tiles, want near %d", frac, got, want)
		}
	}
}

// interTileCrossings counts routed edges whose interior endpoints lie in
// different tiles — the inter-tile interconnect the boundary sweep
// minimizes.
func interTileCrossings(l *Layout) int {
	total := 0
	for _, rn := range l.Routes {
		for _, e := range rn.Route {
			a, b := l.Grid.EdgeEnds(e)
			if !l.Dev.IsCLB(a) || !l.Dev.IsCLB(b) {
				continue
			}
			if l.TileOf(a) != l.TileOf(b) {
				total++
			}
		}
	}
	return total
}

func TestUniformVsMinCutBoundaries(t *testing.T) {
	// The min-crossing sweep must keep the partition valid (buildTest runs
	// Check) and not increase boundary crossings vs uniform cuts.
	lUni := buildTest(t, 120, Spec{Seed: 14, UniformBoundaries: true})
	lOpt := buildTest(t, 120, Spec{Seed: 14})
	if cu, co := interTileCrossings(lUni), interTileCrossings(lOpt); co > cu {
		t.Fatalf("min-cut boundaries crossed more nets than uniform: %d vs %d", co, cu)
	}
}

func BenchmarkBuild150(b *testing.B) {
	nl := testDesign(b, 150, 777)
	for i := 0; i < b.N; i++ {
		l, err := Build(nl.Clone(), Spec{Seed: 1, PlaceEffort: 0.25})
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

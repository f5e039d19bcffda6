package core

import (
	"fmt"

	"fpgadbg/internal/device"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/route"
)

// Check validates the layout's physical invariants:
//
//   - every non-empty CLB sits on a unique CLB site, every pad on a unique
//     IOB site;
//   - every multi-block net has a route whose edges connect all its pins
//     (stitched crossing nets may contain redundant loops, so connectivity
//     — not strict tree-ness — is enforced);
//   - total channel usage respects capacity;
//   - the tiles exactly partition the CLB area.
func (l *Layout) Check() error {
	// Placement legality.
	occupied := make(map[device.XY]string)
	for i := range l.Packed.CLBs {
		if l.Packed.Empty(i) {
			continue
		}
		p := l.CLBLoc[i]
		if !l.Dev.IsCLB(p) {
			return fmt.Errorf("core: CLB %d at non-CLB site %v", i, p)
		}
		if prev, dup := occupied[p]; dup {
			return fmt.Errorf("core: site %v holds both %s and clb%d", p, prev, i)
		}
		occupied[p] = fmt.Sprintf("clb%d", i)
	}
	padCount := make(map[device.XY]int)
	for net, p := range l.PadLoc {
		if !l.Dev.IsIOB(p) {
			return fmt.Errorf("core: pad %q at non-IOB site %v", l.NL.NetName(net), p)
		}
		padCount[p]++
		if padCount[p] > device.IOBsPerSite {
			return fmt.Errorf("core: IOB position %v holds %d pads (capacity %d)", p, padCount[p], device.IOBsPerSite)
		}
		if prev, dup := occupied[p]; dup {
			return fmt.Errorf("core: site %v holds both %s and pad %q", p, prev, l.NL.NetName(net))
		}
	}

	// Routing validity. Overlay trunk wiring counts against capacity too.
	use := make([]int16, l.Grid.NumEdges())
	for _, e := range l.fixedWiring {
		use[e]++
	}
	table := l.netPinTable()
	for ni := range l.NL.Nets {
		net := netlist.NetID(ni)
		pins := table[ni]
		if len(pins) < 2 {
			continue
		}
		rn, ok := l.Routes[net]
		if !ok {
			return fmt.Errorf("core: net %q (%d pins) has no route", l.NL.NetName(net), len(pins))
		}
		if err := routeConnects(l.Grid, rn.Route, pins); err != nil {
			return fmt.Errorf("core: net %q: %w", l.NL.NetName(net), err)
		}
		for _, e := range rn.Route {
			use[e]++
		}
	}
	for e := range use {
		if int(use[e]) > l.Grid.Cap {
			a, b := l.Grid.EdgeEnds(route.EdgeID(e))
			return fmt.Errorf("core: channel %v-%v used %d > capacity %d", a, b, use[e], l.Grid.Cap)
		}
	}

	// Tile partition.
	area := 0
	for _, t := range l.Tiles {
		area += t.Rect.Area()
	}
	if area != l.Dev.NumCLBSites() {
		return fmt.Errorf("core: tiles cover %d sites, device has %d", area, l.Dev.NumCLBSites())
	}
	for i, a := range l.Tiles {
		for _, b := range l.Tiles[i+1:] {
			if a.Rect.Intersects(b.Rect) {
				return fmt.Errorf("core: tiles %d and %d overlap", a.ID, b.ID)
			}
		}
		for y := a.Rect.Y0; y <= a.Rect.Y1; y++ {
			for x := a.Rect.X0; x <= a.Rect.X1; x++ {
				if l.TileOf(device.XY{X: x, Y: y}) != a.ID {
					return fmt.Errorf("core: TileOf(%d,%d) != %d", x, y, a.ID)
				}
			}
		}
	}
	return nil
}

// routeConnects verifies that the route's edges place all pins in one
// connected component (loops permitted — stitched nets can contain them).
func routeConnects(g *route.Grid, edges []route.EdgeID, pins []device.XY) error {
	if len(pins) < 2 {
		return nil
	}
	parent := make(map[int32]int32)
	var find func(x int32) int32
	find = func(x int32) int32 {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	add := func(x int32) {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
	}
	for _, e := range edges {
		a, b := g.EdgeEnds(e)
		ai, bi := g.NodeIdx(a), g.NodeIdx(b)
		add(ai)
		add(bi)
		parent[find(ai)] = find(bi)
	}
	for _, p := range pins {
		add(g.NodeIdx(p))
	}
	root := find(g.NodeIdx(pins[0]))
	for _, p := range pins[1:] {
		if find(g.NodeIdx(p)) != root {
			return fmt.Errorf("pin %v disconnected from route", p)
		}
	}
	return nil
}

// VerifyLayout is the full post-transaction assertion: the layout's
// physical invariants (Check) plus the transaction machinery's — no
// checkpoint may be left open, the journals must be drained, and the
// netlist itself must validate. Tests call it after every rollback to
// prove the journal restored a consistent state.
// It is the differential oracle for the transaction journal
// (TestProbeRoundsOnCatalog, TestCheckpointRollbackRestoresLayout).
func VerifyLayout(l *Layout) error {
	if l.txnDepth != 0 {
		return fmt.Errorf("core: %d transaction(s) still open", l.txnDepth)
	}
	if len(l.journal) != 0 {
		return fmt.Errorf("core: physical journal holds %d orphaned ops", len(l.journal))
	}
	if l.NL.JournalActive() || l.NL.JournalLen() != 0 {
		return fmt.Errorf("core: netlist journal not drained (active=%v, len=%d)", l.NL.JournalActive(), l.NL.JournalLen())
	}
	if l.Packed.JournalLen() != 0 {
		return fmt.Errorf("core: packing journal holds %d orphaned ops", l.Packed.JournalLen())
	}
	if err := l.NL.Check(); err != nil {
		return err
	}
	if err := l.Packed.Check(); err != nil {
		return err
	}
	return l.Check()
}

// FrozenOutside snapshots the placement and routing outside the given
// region; comparing snapshots before and after a change proves the paper's
// central claim that unaffected tiles are untouched.
// It is the differential oracle for tile-local updates
// (TestFrozenOutsideInvariant).
func (l *Layout) FrozenOutside(region device.RectSet) map[string]string {
	snap := make(map[string]string)
	for i := range l.Packed.CLBs {
		if l.Packed.Empty(i) {
			continue
		}
		if !region.Contains(l.CLBLoc[i]) {
			snap[fmt.Sprintf("clb%d", i)] = l.CLBLoc[i].String()
		}
	}
	for net, rn := range l.Routes {
		_, outside, _ := route.SplitRoute(l.Grid, rn.Route, region)
		if len(outside) > 0 && len(outside) == len(rn.Route) {
			snap["net:"+l.NL.NetName(net)] = fmt.Sprint(outside)
		}
	}
	return snap
}

package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"fpgadbg/internal/device"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/place"
	"fpgadbg/internal/route"
)

// Delta describes a debugging change already applied to the layout's
// logical netlist: inserted test logic, a corrected cone, or both. Added
// cells must exist (live) in l.NL but not yet be packed; Removed cells
// must already be tombstoned in l.NL but still packed; Modified cells had
// their function or fanin rewired in place.
type Delta struct {
	Added    []netlist.CellID
	Modified []netlist.CellID
	Removed  []netlist.CellID
}

// ChangeReport describes what a delta touched and what it cost.
type ChangeReport struct {
	AffectedTiles []int
	NewCLBs       []int
	Effort        Effort
	// ReroutedNets counts nets whose wiring changed.
	ReroutedNets int
	// RewiredTiles lists the tiles outside AffectedTiles whose own
	// wiring the delta changed: a net extended, or newly routed, over
	// spare capacity passes through them. GlobalRewired reports a change
	// to wiring that runs between tiles or to a pad. With AffectedTiles
	// they name every configuration frame the delta rewrote.
	RewiredTiles  []int
	GlobalRewired bool
}

// ApplyDelta implements the paper's per-iteration physical update
// (pseudo-code steps 17–20): identify and clear the affected tiles,
// re-place their logic together with the newly introduced cells, and
// re-route locally against locked tile interfaces. Cells, wiring and pads
// outside the affected tiles are never disturbed. A configuration-only
// delta (see configOnlyTiles) skips all three: its report names the
// modified cells' tiles, whose frames change, and carries no placement
// or routing effort.
//
// ApplyDelta is transactional: it opens an internal checkpoint and rolls
// back to it on any failure, so an error (unpackable delta, unplaceable
// region, exhausted channel capacity) leaves the layout bit-identical to
// its pre-call state — the physical mutations made before the failure
// are undone through the journal. Netlist edits made by the caller
// before the call are outside this transaction; wrap the whole change in
// an outer Checkpoint to revert those too.
func (l *Layout) ApplyDelta(d Delta) (*ChangeReport, error) {
	cp := l.Checkpoint()
	rep, err := l.applyDelta(d)
	if err != nil {
		if rerr := l.Rollback(cp); rerr != nil {
			return nil, fmt.Errorf("%w (rollback also failed: %v)", err, rerr)
		}
		return nil, err
	}
	l.rewiredFrames(rep, l.journal[cp.phys:])
	l.Commit(cp)
	return rep, nil
}

// rewiredFrames fills rep's RewiredTiles and GlobalRewired from the
// journal of the delta: every route it replaced is compared edge by edge
// with the net's route now, and every pad it placed or moved counts as a
// global change. Cells only move inside the affected tiles, so their
// frames need no search.
func (l *Layout) rewiredFrames(rep *ChangeReport, ops []physOp) {
	seen := make(map[netlist.NetID]bool)
	note := func(e route.EdgeID) {
		a, b := l.Grid.EdgeEnds(e)
		t := l.TileOf(a)
		switch {
		case !l.Tiles[t].Rect.Contains(a) || !l.Tiles[t].Rect.Contains(b):
			rep.GlobalRewired = true
		case !slices.Contains(rep.AffectedTiles, t) && !slices.Contains(rep.RewiredTiles, t):
			rep.RewiredTiles = append(rep.RewiredTiles, t)
		}
	}
	for _, op := range ops {
		switch {
		case op.kind == opPad:
			rep.GlobalRewired = true
		case op.kind == opRoute && !seen[op.net]:
			seen[op.net] = true
			var was, now []route.EdgeID
			if op.existed {
				was = slices.Clone(op.route.Route)
			}
			if rn := l.Routes[op.net]; rn != nil {
				now = slices.Clone(rn.Route)
			}
			slices.Sort(was)
			slices.Sort(now)
			for len(was) > 0 || len(now) > 0 {
				switch {
				case len(now) == 0 || len(was) > 0 && was[0] < now[0]:
					note(was[0])
					was = was[1:]
				case len(was) == 0 || now[0] < was[0]:
					note(now[0])
					now = now[1:]
				default:
					was, now = was[1:], now[1:]
				}
			}
		}
	}
	sort.Ints(rep.RewiredTiles)
}

func (l *Layout) applyDelta(d Delta) (*ChangeReport, error) {
	start := time.Now()
	rep := &ChangeReport{}

	// 1. Seed tiles: where modified and removed logic currently sits.
	seedSet := make(map[int]bool)
	for _, id := range d.Modified {
		clb, ok := l.Packed.CellCLB[id]
		if !ok {
			return nil, fmt.Errorf("core: modified cell %q is not packed", l.NL.CellName(id))
		}
		seedSet[l.TileOf(l.CLBLoc[clb])] = true
	}
	for _, id := range d.Removed {
		clb, ok := l.Packed.CellCLB[id]
		if !ok {
			return nil, fmt.Errorf("core: removed cell %q is not packed", l.NL.CellName(id))
		}
		seedSet[l.TileOf(l.CLBLoc[clb])] = true
	}

	// 2. Unpack removed cells (their sites become slack).
	for _, id := range d.Removed {
		if err := l.Packed.Unassign(id); err != nil {
			return nil, err
		}
	}

	// 3. Pack added cells into fresh CLBs.
	newCLBs, err := l.Packed.PackInto(d.Added)
	if err != nil {
		return nil, err
	}
	rep.NewCLBs = newCLBs
	l.growCLBLoc(len(l.Packed.CLBs))
	pads := len(l.PadLoc)
	if err := l.placeNewPads(); err != nil {
		return nil, err
	}

	// A configuration-only delta rewrites the modified cells' CLB frames
	// and nothing else: no cell moves and no wire changes, so it skips
	// recruitment, placement and routing.
	if len(l.PadLoc) == pads {
		if tiles, ok := l.configOnlyTiles(d); ok {
			rep.AffectedTiles = tiles
			rep.Effort.Wall = time.Since(start)
			return rep, nil
		}
	}
	if len(seedSet) == 0 {
		// Pure insertion: seed at the tile with the most slack.
		free := l.TileFree()
		best, bestFree := 0, -1
		for t, f := range free {
			if f > bestFree {
				best, bestFree = t, f
			}
		}
		seedSet[best] = true
	}

	// 4. Expand over neighbors until the affected tiles can hold the new
	// logic (Figure 3's recruitment rule, multi-seeded).
	affected, err := l.expandAffected(seedSet, len(newCLBs))
	if err != nil {
		return nil, err
	}

	// 5-7. Clear, re-place and re-route the affected tiles. If the region
	// turns out too congested to route, recruit one more ring of neighbor
	// tiles and retry — the paper's fallback when a tile "cannot support
	// the introduction of a large amount of logic".
	for attempt := 0; ; attempt++ {
		region := l.RegionOf(affected)
		movable := make(map[int]bool)
		for i := range l.Packed.CLBs {
			if l.Packed.Empty(i) {
				continue
			}
			if region.Contains(l.CLBLoc[i]) {
				movable[i] = true
			}
		}
		for _, clb := range newCLBs {
			movable[clb] = true
		}

		sp := l.obs.Start(obs.StagePlace)
		prob, clbOfBlock, padOfBlock := l.buildPlaceProblem(movable, region)
		res, err := place.Anneal(prob, place.Options{Seed: l.Spec.Seed + 1, Effort: l.Spec.PlaceEffort})
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: tile re-place: %w", err)
		}
		l.adoptPlacement(res, clbOfBlock, padOfBlock)
		rep.Effort.PlaceMoves += res.Moves
		rep.Effort.CellsPlaced += len(movable)
		sp.Add("place-moves", res.Moves)
		sp.Add("cells-placed", int64(len(movable)))
		sp.End()

		routeEff, rerouted, err := l.rerouteTouched(region, true)
		rep.Effort.Add(routeEff)
		if err != nil {
			grown := l.growAffected(affected)
			if attempt < 3 && len(grown) > len(affected) {
				affected = grown
				continue
			}
			return nil, err
		}
		rep.AffectedTiles = affected
		rep.ReroutedNets = len(rerouted)
		break
	}
	rep.Effort.Wall = time.Since(start)
	return rep, nil
}

// configOnlyTiles reports whether d changes only the configuration of
// the CLBs holding its modified cells — LUT tables, flip-flop inits, the
// order of a LUT's input pins — and if so returns those CLBs' tiles. That
// holds when d adds and removes no cell and every net with a pin at one
// of those CLBs, now or in its stored route, still has exactly the pins
// its stored route connects. It is decided from the layout's own state,
// so a rewire that moves a net off or onto a CLB always fails it.
func (l *Layout) configOnlyTiles(d Delta) ([]int, bool) {
	if len(d.Added) > 0 || len(d.Removed) > 0 || len(d.Modified) == 0 {
		return nil, false
	}
	var sites []device.XY
	for _, id := range d.Modified {
		if p := l.CLBLoc[l.Packed.CellCLB[id]]; !slices.Contains(sites, p) {
			sites = append(sites, p)
		}
	}
	atSite := func(pins []device.XY) bool {
		return slices.ContainsFunc(pins, func(p device.XY) bool { return slices.Contains(sites, p) })
	}
	table := l.netPinTable()
	unchanged := func(net netlist.NetID) bool {
		pins := table[net]
		rn := l.Routes[net]
		if rn == nil {
			return len(pins) < 2
		}
		if len(rn.Pins) != len(pins) {
			return false
		}
		for _, p := range pins {
			if !slices.Contains(rn.Pins, p) {
				return false
			}
		}
		return true
	}
	for ni, pins := range table {
		if atSite(pins) && !unchanged(netlist.NetID(ni)) {
			return nil, false
		}
	}
	for net, rn := range l.Routes {
		if atSite(rn.Pins) && !unchanged(net) {
			return nil, false
		}
	}
	tiles := make([]int, 0, len(sites))
	for _, p := range sites {
		if t := l.TileOf(p); !slices.Contains(tiles, t) {
			tiles = append(tiles, t)
		}
	}
	sort.Ints(tiles)
	return tiles, true
}

// placeNewPads assigns free IOB sites to PI/PO nets that gained pad status
// after the initial build (e.g. a newly exported observation flag). Each
// pad takes the free ring site nearest to the net's existing pins.
func (l *Layout) placeNewPads() error {
	used := make(map[device.XY]int, len(l.PadLoc))
	for _, p := range l.PadLoc {
		used[p]++
	}
	assign := func(net netlist.NetID) error {
		if _, ok := l.PadLoc[net]; ok {
			return nil
		}
		pins := l.netPinTable()[net]
		best := device.XY{X: -1}
		bestDist := 1 << 30
		for _, s := range l.Dev.IOBSites() {
			if used[s] >= device.IOBsPerSite {
				continue
			}
			d := 0
			for _, p := range pins {
				d += device.ManhattanDist(s, p)
			}
			if d < bestDist {
				best, bestDist = s, d
			}
		}
		if best.X < 0 {
			return fmt.Errorf("core: no free IOB site for new pad %q", l.NL.NetName(net))
		}
		used[best]++
		l.setPad(net, best)
		return nil
	}
	for _, pi := range l.NL.PIs {
		if err := assign(pi); err != nil {
			return err
		}
	}
	for _, po := range l.NL.POs {
		if err := assign(po); err != nil {
			return err
		}
	}
	return nil
}

// growAffected adds every neighbor of the current affected set.
func (l *Layout) growAffected(affected []int) []int {
	inSet := make(map[int]bool, len(affected))
	for _, t := range affected {
		inSet[t] = true
	}
	out := append([]int(nil), affected...)
	for _, t := range affected {
		for _, nb := range l.Neighbors(t) {
			if !inSet[nb] {
				inSet[nb] = true
				out = append(out, nb)
			}
		}
	}
	sort.Ints(out)
	return out
}

func containsTile(tiles []int, t int) bool {
	for _, x := range tiles {
		if x == t {
			return true
		}
	}
	return false
}

// expandAffected is AffectedTiles generalized to multiple seeds.
func (l *Layout) expandAffected(seeds map[int]bool, needCLBs int) ([]int, error) {
	free := l.TileFree()
	var queue []int
	inSet := make(map[int]bool)
	for t := range seeds {
		inSet[t] = true
	}
	for t := range inSet {
		queue = append(queue, t)
	}
	sort.Ints(queue)
	capacity := 0
	for _, t := range queue {
		capacity += free[t]
	}
	for i := 0; capacity < needCLBs; i++ {
		if i >= len(queue) {
			return nil, fmt.Errorf("core: cannot absorb %d new CLBs: only %d free sites reachable", needCLBs, capacity)
		}
		for _, nb := range l.Neighbors(queue[i]) {
			if inSet[nb] {
				continue
			}
			inSet[nb] = true
			queue = append(queue, nb)
			capacity += free[nb]
			if capacity >= needCLBs {
				break
			}
		}
	}
	sort.Ints(queue)
	return queue, nil
}

// rerouteTouched re-routes all wiring that touches the given region,
// through the layout's persistent Router. The two modes consolidate the
// former rerouteRegion/rerouteWindow near-duplicates:
//
//   - lockInterfaces (the paper's tile-local update): nets fully inside
//     are rebuilt within the region; nets crossing the boundary keep
//     their outside wiring and locked crossing points (the tile
//     interfaces) and only their inside portions are rebuilt; a net
//     whose wiring lies wholly outside but which gains a pin inside
//     keeps that wiring and grows from it to the new pins; brand-new
//     nets that must reach outside are routed over spare capacity
//     anywhere. New wiring never disturbs locked wiring.
//
//   - !lockInterfaces (the conventional incremental-tool model used by
//     the baselines): every net with a pin or an edge in the region is
//     ripped entirely and re-routed over the whole device.
//
// It returns the re-routed net IDs.
func (l *Layout) rerouteTouched(region device.RectSet, lockInterfaces bool) (Effort, []netlist.NetID, error) {
	nl := l.NL
	var eff Effort

	type stitched struct {
		net     netlist.NetID
		outside []route.EdgeID
		inner   *route.Net
	}
	var innerNets []*route.Net  // nets to route within the region
	var stitchedNets []stitched // region portion of crossing nets
	var extendedNets []stitched // outside trees extended to new inside pins
	var globalNets []*route.Net // new/expanded/window nets routed anywhere

	// Classify every live net, charging untouched wiring as locked. The
	// overlay trunk wiring, when present, is permanently locked too.
	// Re-routed nets keep copies of their pins, so the stored routes never
	// hold on to the whole pin table.
	router := l.ensureRouter()
	router.BeginPass()
	router.Charge(l.fixedWiring)
	table := l.netPinTable()
	for ni := range nl.Nets {
		if nl.Nets[ni].Dead {
			continue
		}
		net := netlist.NetID(ni)
		pins := table[ni]
		if len(pins) < 2 {
			l.deleteRoute(net)
			continue
		}
		inCnt := 0
		for _, p := range pins {
			if region.Contains(p) {
				inCnt++
			}
		}
		old := l.Routes[net]
		touches := inCnt > 0
		if old != nil && !touches {
			for _, e := range old.Route {
				a, b := l.Grid.EdgeEnds(e)
				if region.Contains(a) || region.Contains(b) {
					touches = true
					break
				}
			}
		}
		if !touches {
			if old == nil {
				// Untouched net that was never routed (should not happen
				// after Build) — route it globally.
				globalNets = append(globalNets, &route.Net{ID: ni, Pins: slices.Clone(pins)})
				continue
			}
			router.Charge(old.Route)
			continue
		}
		switch {
		case !lockInterfaces:
			// Incremental-tool model: rip the whole net.
			globalNets = append(globalNets, &route.Net{ID: ni, Pins: slices.Clone(pins)})
		case inCnt == len(pins):
			// Fully inside: rebuild from scratch within the region.
			innerNets = append(innerNets, &route.Net{ID: ni, Pins: slices.Clone(pins)})
		case old == nil:
			// New net spanning the boundary: no locked interface exists
			// yet; route globally over spare capacity.
			globalNets = append(globalNets, &route.Net{ID: ni, Pins: slices.Clone(pins)})
		default:
			_, outside, crossings := route.SplitRoute(l.Grid, old.Route, region)
			insidePins := make([]device.XY, 0, inCnt)
			for _, p := range pins {
				if region.Contains(p) {
					insidePins = append(insidePins, p)
				}
			}
			if len(crossings) == 0 {
				if len(outside) == 0 {
					// The old tree lay wholly inside the region, which is
					// cleared: route the net afresh.
					globalNets = append(globalNets, &route.Net{ID: ni, Pins: slices.Clone(pins)})
					continue
				}
				// The old tree never reached the region: keep it locked
				// and extend it over spare capacity to the inside pins.
				router.Charge(outside)
				extendedNets = append(extendedNets, stitched{net: net, outside: outside,
					inner: &route.Net{ID: ni, Pins: slices.Clone(pins)}})
				continue
			}
			router.Charge(outside)
			// The inner portion must connect the locked crossing points
			// with the (re-placed) inside pins.
			innerPins := append(append([]device.XY(nil), crossings...), insidePins...)
			st := stitched{net: net, outside: outside,
				inner: &route.Net{ID: ni, Pins: innerPins}}
			stitchedNets = append(stitchedNets, st)
		}
	}

	// Route the region-confined work first (inner + stitched inner
	// portions negotiate congestion together).
	if len(innerNets)+len(stitchedNets) > 0 {
		regionWork := make([]*route.Net, 0, len(innerNets)+len(stitchedNets))
		regionWork = append(regionWork, innerNets...)
		for _, st := range stitchedNets {
			regionWork = append(regionWork, st.inner)
		}
		allowed := func(p device.XY) bool { return region.Contains(p) }
		res, err := router.Route(regionWork, route.Options{Allowed: allowed})
		if err != nil {
			return eff, nil, fmt.Errorf("core: region re-route: %w", err)
		}
		eff.RouteExpansions += res.Expansions
		for _, rn := range regionWork {
			router.Charge(rn.Route)
		}
	}

	// Then global nets and extensions over remaining spare capacity
	// anywhere.
	globalWork := globalNets
	var existing map[int][]route.EdgeID
	for _, st := range extendedNets {
		if existing == nil {
			existing = make(map[int][]route.EdgeID, len(extendedNets))
		}
		existing[st.inner.ID] = st.outside
		globalWork = append(globalWork, st.inner)
	}
	if len(globalWork) > 0 {
		gres, err := router.Route(globalWork, route.Options{Existing: existing})
		if err != nil {
			mode := "global net"
			if !lockInterfaces {
				mode = "window"
			}
			return eff, nil, fmt.Errorf("core: %s re-route: %w", mode, err)
		}
		eff.RouteExpansions += gres.Expansions
	}

	// Commit results (journaled when a transaction is open).
	var rerouted []netlist.NetID
	for _, rn := range innerNets {
		l.setRoute(netlist.NetID(rn.ID), rn)
		rerouted = append(rerouted, netlist.NetID(rn.ID))
	}
	for _, st := range append(stitchedNets, extendedNets...) {
		full := append(append([]route.EdgeID(nil), st.outside...), st.inner.Route...)
		l.setRoute(st.net, &route.Net{ID: st.inner.ID, Pins: slices.Clone(table[st.net]), Route: full})
		rerouted = append(rerouted, st.net)
	}
	for _, rn := range globalNets {
		l.setRoute(netlist.NetID(rn.ID), rn)
		rerouted = append(rerouted, netlist.NetID(rn.ID))
	}
	eff.NetsRouted = len(rerouted)
	return eff, rerouted, nil
}

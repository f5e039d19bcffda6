package route

import (
	"fmt"

	"fpgadbg/internal/device"
)

// CheckRoutes validates that every net's route is a connected tree
// spanning its pins and that total usage (including fixedUse) respects
// capacity. It is the router's externally checkable contract.
// Differential oracle for every routing pass (TestQuickRandomNets).
func CheckRoutes(g *Grid, nets []*Net, fixedUse []int16) error {
	use := make([]int16, g.NumEdges())
	if fixedUse != nil {
		copy(use, fixedUse)
	}
	for _, n := range nets {
		if n.Locked {
			continue
		}
		if err := CheckTree(g, n); err != nil {
			return err
		}
		for _, e := range n.Route {
			use[e]++
		}
	}
	for e := range use {
		if int(use[e]) > g.Cap {
			a, b := g.EdgeEnds(EdgeID(e))
			return fmt.Errorf("route: edge %v-%v used %d > capacity %d", a, b, use[e], g.Cap)
		}
	}
	return nil
}

// CheckTree validates a single net: the route's edges connect all pins in
// one component and contain no cycle (edge count == node count - 1).
// Differential oracle for one route (TestCheckTreeCatchesBadRoutes).
func CheckTree(g *Grid, n *Net) error {
	pins := dedupePins(g, n.Pins)
	if len(pins) < 2 {
		if len(n.Route) != 0 {
			return fmt.Errorf("route: net %d has %d edges but fewer than 2 distinct pins", n.ID, len(n.Route))
		}
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
	nodes := make(map[int32]bool)
	cycle := false
	for _, e := range n.Route {
		a, b := g.EdgeEnds(e)
		ai, bi := g.NodeIdx(a), g.NodeIdx(b)
		nodes[ai] = true
		nodes[bi] = true
		add(ai)
		add(bi)
		ra, rb := find(ai), find(bi)
		if ra == rb {
			cycle = true
		} else {
			parent[ra] = rb
		}
	}
	if cycle {
		return fmt.Errorf("route: net %d route contains a cycle", n.ID)
	}
	for _, p := range pins {
		add(p)
		nodes[p] = true
	}
	root := find(pins[0])
	for _, p := range pins[1:] {
		if find(p) != root {
			return fmt.Errorf("route: net %d pin %v disconnected", n.ID, g.NodeXY(p))
		}
	}
	return nil
}

// SplitRoute partitions a route against a region: edges fully inside,
// edges fully outside (including boundary-crossing edges, which stay with
// the locked outside portion), and the crossing coordinates — the nodes
// just inside the region where the route enters or leaves. Crossings are
// the locked tile-interface points of the paper: a tile-local re-route
// treats them as immovable virtual pins.
func SplitRoute(g *Grid, route []EdgeID, region device.RectSet) (inside, outside []EdgeID, crossings []device.XY) {
	seen := make(map[device.XY]bool)
	for _, e := range route {
		a, b := g.EdgeEnds(e)
		ain, bin := region.Contains(a), region.Contains(b)
		switch {
		case ain && bin:
			inside = append(inside, e)
		case !ain && !bin:
			outside = append(outside, e)
		default:
			outside = append(outside, e)
			p := a
			if bin {
				p = b
			}
			if !seen[p] {
				seen[p] = true
				crossings = append(crossings, p)
			}
		}
	}
	return inside, outside, crossings
}

// UsageOf accumulates per-edge usage of the given nets (locked or not)
// into a fresh table; used to build FixedUse for region re-routes.
// Differential oracle for the router's charged usage
// (TestRouterChargeMatchesFixedUse).
func UsageOf(g *Grid, nets []*Net) []int16 {
	use := make([]int16, g.NumEdges())
	for _, n := range nets {
		for _, e := range n.Route {
			use[e]++
		}
	}
	return use
}

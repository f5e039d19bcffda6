package route

import (
	"container/heap"
	"fmt"
	"sort"

	"fpgadbg/internal/device"
	"fpgadbg/internal/obs"
)

// EdgeID identifies one channel segment of the routing grid.
type EdgeID int32

// Grid is the routing resource graph: one node per grid coordinate
// (including the IOB ring), orthogonal edges with uniform capacity.
type Grid struct {
	W, H int // CLB array size; grid coordinates span (0..W+1, 0..H+1)
	Cap  int // tracks per channel segment

	wExt, hExt int
	numH       int // horizontal edge count
}

// NewGrid builds the routing graph for a device.
func NewGrid(dev device.Device) *Grid {
	g := &Grid{
		W: dev.W, H: dev.H, Cap: dev.ChannelWidth,
		wExt: dev.W + 2, hExt: dev.H + 2,
	}
	g.numH = (g.wExt - 1) * g.hExt
	return g
}

// NumNodes returns the node count.
func (g *Grid) NumNodes() int { return g.wExt * g.hExt }

// NumEdges returns the edge count.
func (g *Grid) NumEdges() int { return g.numH + g.wExt*(g.hExt-1) }

// NodeIdx maps a coordinate to its node index.
func (g *Grid) NodeIdx(p device.XY) int32 { return int32(p.Y*g.wExt + p.X) }

// NodeXY maps a node index back to its coordinate.
func (g *Grid) NodeXY(n int32) device.XY {
	return device.XY{X: int(n) % g.wExt, Y: int(n) / g.wExt}
}

// hEdge returns the edge between (x,y) and (x+1,y).
func (g *Grid) hEdge(x, y int) EdgeID { return EdgeID(y*(g.wExt-1) + x) }

// vEdge returns the edge between (x,y) and (x,y+1).
func (g *Grid) vEdge(x, y int) EdgeID { return EdgeID(g.numH + x*(g.hExt-1) + y) }

// EdgeEnds returns an edge's two endpoint coordinates.
func (g *Grid) EdgeEnds(e EdgeID) (device.XY, device.XY) {
	if int(e) < g.numH {
		x := int(e) % (g.wExt - 1)
		y := int(e) / (g.wExt - 1)
		return device.XY{X: x, Y: y}, device.XY{X: x + 1, Y: y}
	}
	r := int(e) - g.numH
	x := r / (g.hExt - 1)
	y := r % (g.hExt - 1)
	return device.XY{X: x, Y: y}, device.XY{X: x, Y: y + 1}
}

// neighbors visits the up-to-four adjacent nodes of n with the connecting
// edge.
func (g *Grid) neighbors(n int32, visit func(edge EdgeID, to int32)) {
	x := int(n) % g.wExt
	y := int(n) / g.wExt
	if x > 0 {
		visit(g.hEdge(x-1, y), n-1)
	}
	if x < g.wExt-1 {
		visit(g.hEdge(x, y), n+1)
	}
	if y > 0 {
		visit(g.vEdge(x, y-1), n-int32(g.wExt))
	}
	if y < g.hExt-1 {
		visit(g.vEdge(x, y), n+int32(g.wExt))
	}
}

// Net is one signal to route. Pins[0] is the source; Route is the solver
// output (a set of edges forming a tree over the pins).
type Net struct {
	ID    int
	Pins  []device.XY
	Route []EdgeID
	// Locked routes are never ripped up; their usage must be passed in
	// Options.FixedUse (or charged into the Router) by the caller.
	Locked bool
}

// RouteLen returns the wirelength of the net's current route.
func (n *Net) RouteLen() int { return len(n.Route) }

// Options tune the router.
type Options struct {
	// MaxIters bounds the negotiation iterations (default 40).
	MaxIters int
	// Allowed, when non-nil, restricts expansion to permitted coordinates;
	// all pins of routed nets must be permitted.
	Allowed func(device.XY) bool
	// FixedUse charges pre-existing usage per edge (locked nets, tile
	// interfaces). Indexed by EdgeID; may be nil, in which case a
	// persistent Router falls back to the usage accumulated through
	// BeginPass/Charge.
	FixedUse []int16
	// CapReserve withholds tracks per channel segment from this pass:
	// nets route as if the grid capacity were Cap-CapReserve (clamped to
	// at least one track). The debug overlay uses it to keep headroom for
	// trunk wiring that is routed afterwards at full capacity.
	CapReserve int
	// Existing maps a net ID to wiring the net already has (a connected
	// tree) that its route extends rather than replaces: the search grows
	// from every node of that tree to the pins it does not reach, and the
	// net's Route receives only the new edges. The caller charges the
	// existing wiring's usage like locked wiring.
	Existing map[int][]EdgeID
}

// Result reports routing work and convergence.
type Result struct {
	// Expansions counts Dijkstra heap pops — the deterministic effort
	// counter.
	Expansions int64
	Iters      int
	// Overused is the number of edges still over capacity at exit (0 on
	// success).
	Overused int
	// Wirelength is the total edge count over all routed nets.
	Wirelength int
}

// Router is a persistent routing engine bound to one Grid. It owns the
// congestion and history arrays, the search heap and every scratch buffer
// across calls, so the incremental debug loop pays no per-call setup
// allocations — the compiled-program treatment applied to routing. A
// Router is not safe for concurrent use; callers that share one across
// goroutines must serialize access.
//
// Two usage styles:
//
//   - one-shot: RouteAll (a thin wrapper constructing a fresh Router);
//   - incremental: keep the Router, accumulate the locked wiring of the
//     current pass with BeginPass/Charge, then Route only the nets
//     incident to the affected tiles. Results are bit-identical to the
//     one-shot path for the same routing problem (the reused scratch is
//     epoch-invalidated, and congestion state resets every Route call).
type Router struct {
	g *Grid

	// Obs, when set, receives one "route" span per Route call with
	// routed-net/iteration/expansion counters. Core wires it to the
	// owning Layout's trace (core.Layout.SetObs) so both the initial
	// full route and every incremental reroute land in the same
	// per-campaign StageTrace.
	Obs *obs.Trace

	// fixed accumulates locked wiring between BeginPass and Route when
	// Options.FixedUse is nil.
	fixed []int16

	// use and hist are the negotiated-congestion state of the current
	// Route call; capEff is the effective capacity of the call
	// (Cap-CapReserve, at least 1).
	use    []int16
	hist   []float64
	capEff int

	// Dijkstra scratch, epoch-invalidated so no per-search clearing.
	dist    []float64
	prev    []EdgeID
	from    []int32
	mark    []int32 // search epoch per node
	settled []int32 // settled epoch per node
	inTree  []int32 // Steiner-tree epoch per node
	target  []int32 // remaining-sink epoch per node
	epoch   int32

	q          pq
	treeNodes  []int32
	pinScratch []int32
	pinSeen    map[int32]bool

	expansions int64
}

// NewRouter builds a persistent router for the grid.
func NewRouter(g *Grid) *Router {
	return &Router{
		g:       g,
		fixed:   make([]int16, g.NumEdges()),
		use:     make([]int16, g.NumEdges()),
		hist:    make([]float64, g.NumEdges()),
		dist:    make([]float64, g.NumNodes()),
		prev:    make([]EdgeID, g.NumNodes()),
		from:    make([]int32, g.NumNodes()),
		mark:    make([]int32, g.NumNodes()),
		settled: make([]int32, g.NumNodes()),
		inTree:  make([]int32, g.NumNodes()),
		target:  make([]int32, g.NumNodes()),
		pinSeen: make(map[int32]bool, 16),
	}
}

// Grid returns the routing graph the router is bound to.
func (r *Router) Grid() *Grid { return r.g }

// BeginPass clears the accumulated fixed usage, starting a new routing
// transaction.
func (r *Router) BeginPass() {
	for i := range r.fixed {
		r.fixed[i] = 0
	}
}

// Charge adds locked wiring (edges that must never be ripped up during
// the coming Route calls) to the pass's fixed usage.
func (r *Router) Charge(edges []EdgeID) {
	for _, e := range edges {
		r.fixed[e]++
	}
}

// RouteAll routes every non-locked net with a fresh Router. It returns an
// error when pins fall outside the allowed region or the graph, or when
// congestion cannot be resolved within MaxIters.
// It is the one-shot differential oracle for the persistent Router
// (TestQuickRandomNets, TestRouterChargeMatchesFixedUse).
func RouteAll(g *Grid, nets []*Net, opt Options) (*Result, error) {
	return NewRouter(g).Route(nets, opt)
}

// Route routes every non-locked net of the slice against the pass's fixed
// usage (Options.FixedUse when non-nil, the Charge accumulator
// otherwise). Congestion and history state reset on entry, so repeated
// calls on one Router are independent routing problems; only the scratch
// memory is shared.
func (r *Router) Route(nets []*Net, opt Options) (*Result, error) {
	sp := r.Obs.Start(obs.StageRoute)
	defer sp.End()
	g := r.g
	if opt.MaxIters <= 0 {
		opt.MaxIters = 40
	}
	r.capEff = g.Cap - opt.CapReserve
	if r.capEff < 1 {
		r.capEff = 1
	}
	// A long-lived Router (the service keeps one warm per pooled layout)
	// must never let the epoch counter wrap into stamps still stored in
	// the scratch arrays: reset everything while no search is in flight.
	if r.epoch > 1<<30 {
		for i := range r.mark {
			r.mark[i], r.settled[i], r.inTree[i], r.target[i] = 0, 0, 0, 0
		}
		r.epoch = 0
	}
	if opt.FixedUse != nil {
		if len(opt.FixedUse) != g.NumEdges() {
			return nil, fmt.Errorf("route: FixedUse length %d != %d edges", len(opt.FixedUse), g.NumEdges())
		}
		copy(r.use, opt.FixedUse)
	} else {
		copy(r.use, r.fixed)
	}
	for i := range r.hist {
		r.hist[i] = 0
	}

	// Validate and normalize pins.
	work := make([]*Net, 0, len(nets))
	for _, n := range nets {
		if n.Locked {
			continue
		}
		for _, p := range n.Pins {
			if p.X < 0 || p.X >= g.wExt || p.Y < 0 || p.Y >= g.hExt {
				return nil, fmt.Errorf("route: net %d pin %v off grid", n.ID, p)
			}
			if opt.Allowed != nil && !opt.Allowed(p) {
				return nil, fmt.Errorf("route: net %d pin %v outside allowed region", n.ID, p)
			}
		}
		if len(r.dedupePins(n.Pins)) >= 2 {
			work = append(work, n)
		} else {
			n.Route = nil
		}
	}
	sort.Slice(work, func(i, j int) bool { return work[i].ID < work[j].ID })

	startExp := r.expansions
	res := &Result{}
	presFac := 1.0
	for iter := 1; iter <= opt.MaxIters; iter++ {
		res.Iters = iter
		for _, n := range work {
			// Rip up.
			for _, e := range n.Route {
				r.use[e]--
			}
			route, err := r.routeNet(n, opt.Existing[n.ID], opt.Allowed, presFac)
			if err != nil {
				return nil, err
			}
			n.Route = route
			for _, e := range n.Route {
				r.use[e]++
			}
		}
		// Converged?
		over := 0
		for e := range r.use {
			if int(r.use[e]) > r.capEff {
				over++
				r.hist[e] += float64(int(r.use[e]) - r.capEff)
			}
		}
		res.Expansions = r.expansions - startExp
		res.Overused = over
		if over == 0 {
			break
		}
		presFac *= 1.8
	}
	sp.Add("routed-nets", int64(len(work)))
	sp.Add("route-iters", int64(res.Iters))
	sp.Add("route-expansions", res.Expansions)
	if res.Overused > 0 {
		return res, fmt.Errorf("route: %d edges still overused after %d iterations", res.Overused, res.Iters)
	}
	for _, n := range nets {
		res.Wirelength += len(n.Route)
	}
	return res, nil
}

// dedupePins maps pins to distinct node indices, reusing scratch.
func (r *Router) dedupePins(pins []device.XY) []int32 {
	for k := range r.pinSeen {
		delete(r.pinSeen, k)
	}
	out := r.pinScratch[:0]
	for _, p := range pins {
		n := r.g.NodeIdx(p)
		if !r.pinSeen[n] {
			r.pinSeen[n] = true
			out = append(out, n)
		}
	}
	r.pinScratch = out
	return out
}

// dedupePins is the package-level form used by verification helpers.
func dedupePins(g *Grid, pins []device.XY) []int32 {
	seen := make(map[int32]bool, len(pins))
	out := make([]int32, 0, len(pins))
	for _, p := range pins {
		n := g.NodeIdx(p)
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

type pqItem struct {
	node int32
	cost float64
}

type pq []pqItem

func (q pq) Len() int      { return len(q) }
func (q pq) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q pq) Less(i, j int) bool {
	if q[i].cost != q[j].cost {
		return q[i].cost < q[j].cost
	}
	return q[i].node < q[j].node
}
func (q *pq) Push(x any) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// edgeCost is the negotiated-congestion cost of adding one more use of e.
func (r *Router) edgeCost(e EdgeID, presFac float64) float64 {
	c := 1.0 + r.hist[e]
	over := int(r.use[e]) + 1 - r.capEff
	if over > 0 {
		c += presFac * float64(over)
	}
	return c
}

// routeNet grows a Steiner tree over the net's pins (from its existing
// wiring, when it has some) with repeated multi-source shortest-path
// searches.
func (r *Router) routeNet(n *Net, existing []EdgeID, allowed func(device.XY) bool, presFac float64) ([]EdgeID, error) {
	pins := r.dedupePins(n.Pins)
	r.epoch++
	treeEp := r.epoch
	r.treeNodes = r.treeNodes[:0]
	grow := func(idx int32) {
		if r.inTree[idx] != treeEp {
			r.inTree[idx] = treeEp
			r.treeNodes = append(r.treeNodes, idx)
		}
	}
	if len(existing) == 0 {
		grow(pins[0])
	}
	for _, e := range existing {
		a, b := r.g.EdgeEnds(e)
		grow(r.g.NodeIdx(a))
		grow(r.g.NodeIdx(b))
	}
	remaining := 0
	for _, p := range pins {
		if r.inTree[p] != treeEp && r.target[p] != treeEp {
			r.target[p] = treeEp
			remaining++
		}
	}
	var route []EdgeID
	for remaining > 0 {
		target, path, err := r.search(r.treeNodes, treeEp, allowed, presFac)
		if err != nil {
			return nil, fmt.Errorf("route: net %d: %w", n.ID, err)
		}
		r.target[target] = 0
		remaining--
		for _, e := range path {
			route = append(route, e)
			a, b := r.g.EdgeEnds(e)
			grow(r.g.NodeIdx(a))
			grow(r.g.NodeIdx(b))
		}
	}
	return route, nil
}

// search runs a multi-source Dijkstra from the tree nodes to the nearest
// remaining target (nodes whose target epoch equals treeEp), returning
// the target and the path's edges.
func (r *Router) search(sources []int32, treeEp int32, allowed func(device.XY) bool, presFac float64) (int32, []EdgeID, error) {
	r.epoch++
	ep := r.epoch
	r.q = r.q[:0]
	for _, s := range sources {
		r.mark[s] = ep
		r.dist[s] = 0
		r.prev[s] = -1
		r.from[s] = -1
		r.q = append(r.q, pqItem{node: s, cost: 0})
	}
	heap.Init(&r.q)
	for r.q.Len() > 0 {
		it := heap.Pop(&r.q).(pqItem)
		if r.settled[it.node] == ep {
			continue
		}
		r.settled[it.node] = ep
		r.expansions++
		if r.target[it.node] == treeEp {
			// Trace back to a source.
			var path []EdgeID
			cur := it.node
			for r.prev[cur] != -1 {
				path = append(path, r.prev[cur])
				cur = r.from[cur]
			}
			return it.node, path, nil
		}
		r.g.neighbors(it.node, func(e EdgeID, to int32) {
			if allowed != nil && !allowed(r.g.NodeXY(to)) {
				return
			}
			nd := it.cost + r.edgeCost(e, presFac)
			if r.mark[to] != ep || nd < r.dist[to] {
				r.mark[to] = ep
				r.dist[to] = nd
				r.prev[to] = e
				r.from[to] = it.node
				heap.Push(&r.q, pqItem{node: to, cost: nd})
			}
		})
	}
	return 0, nil, fmt.Errorf("no path to any remaining sink (region too tight?)")
}

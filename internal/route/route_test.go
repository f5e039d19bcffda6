package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpgadbg/internal/device"
)

func grid(w, h, cap int) *Grid {
	return NewGrid(device.Device{W: w, H: h, ChannelWidth: cap})
}

func TestEdgeIndexRoundtrip(t *testing.T) {
	g := grid(5, 4, 8)
	seen := make(map[EdgeID]bool)
	for e := 0; e < g.NumEdges(); e++ {
		a, b := g.EdgeEnds(EdgeID(e))
		if device.ManhattanDist(a, b) != 1 {
			t.Fatalf("edge %d connects non-adjacent %v %v", e, a, b)
		}
		if seen[EdgeID(e)] {
			t.Fatalf("duplicate edge %d", e)
		}
		seen[EdgeID(e)] = true
	}
	// Neighbor edges must agree with EdgeEnds.
	for n := int32(0); n < int32(g.NumNodes()); n++ {
		g.neighbors(n, func(e EdgeID, to int32) {
			a, b := g.EdgeEnds(e)
			if !(g.NodeIdx(a) == n && g.NodeIdx(b) == to) && !(g.NodeIdx(b) == n && g.NodeIdx(a) == to) {
				t.Fatalf("neighbor edge %d mismatch: node %d to %d but ends %v %v", e, n, to, a, b)
			}
		})
	}
}

func TestSingleNetShortestPath(t *testing.T) {
	g := grid(8, 8, 4)
	n := &Net{ID: 0, Pins: []device.XY{{X: 1, Y: 1}, {X: 6, Y: 5}}}
	res, err := RouteAll(g, []*Net{n}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRoutes(g, []*Net{n}, nil); err != nil {
		t.Fatal(err)
	}
	want := device.ManhattanDist(device.XY{X: 1, Y: 1}, device.XY{X: 6, Y: 5})
	if n.RouteLen() != want {
		t.Fatalf("route length %d, want manhattan %d", n.RouteLen(), want)
	}
	if res.Expansions == 0 {
		t.Fatal("no expansions recorded")
	}
}

func TestMultiTerminalSteiner(t *testing.T) {
	g := grid(8, 8, 4)
	n := &Net{ID: 0, Pins: []device.XY{{X: 4, Y: 4}, {X: 1, Y: 4}, {X: 7, Y: 4}, {X: 4, Y: 1}}}
	if _, err := RouteAll(g, []*Net{n}, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckTree(g, n); err != nil {
		t.Fatal(err)
	}
	// Star from (4,4): 3+3+3 = 9 edges is optimal here.
	if n.RouteLen() != 9 {
		t.Fatalf("steiner length %d, want 9", n.RouteLen())
	}
}

func TestCongestionNegotiation(t *testing.T) {
	// Capacity 1 and two nets wanting the same straight channel: one must
	// detour, and usage must end legal.
	g := grid(6, 6, 1)
	n1 := &Net{ID: 1, Pins: []device.XY{{X: 1, Y: 3}, {X: 6, Y: 3}}}
	n2 := &Net{ID: 2, Pins: []device.XY{{X: 1, Y: 3}, {X: 6, Y: 3}}}
	if _, err := RouteAll(g, []*Net{n1, n2}, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckRoutes(g, []*Net{n1, n2}, nil); err != nil {
		t.Fatal(err)
	}
	// With capacity 1 the two routes must not share any edge.
	used := make(map[EdgeID]bool)
	for _, e := range n1.Route {
		used[e] = true
	}
	for _, e := range n2.Route {
		if used[e] {
			t.Fatal("nets share an edge despite capacity 1")
		}
	}
	if n1.RouteLen() == 5 && n2.RouteLen() == 5 {
		t.Fatal("both nets kept the contested straight path")
	}
}

func TestPinsOffGridRejected(t *testing.T) {
	g := grid(4, 4, 2)
	n := &Net{ID: 0, Pins: []device.XY{{X: 1, Y: 1}, {X: 9, Y: 9}}}
	if _, err := RouteAll(g, []*Net{n}, Options{}); err == nil {
		t.Fatal("off-grid pin accepted")
	}
}

func TestSinglePinNetIsEmpty(t *testing.T) {
	g := grid(4, 4, 2)
	n := &Net{ID: 0, Pins: []device.XY{{X: 2, Y: 2}, {X: 2, Y: 2}}, Route: []EdgeID{3}}
	if _, err := RouteAll(g, []*Net{n}, Options{}); err != nil {
		t.Fatal(err)
	}
	if n.RouteLen() != 0 {
		t.Fatal("degenerate net should have empty route")
	}
}

func TestRegionRestrictedRouting(t *testing.T) {
	g := grid(8, 8, 4)
	region := device.RectSet{{X0: 1, Y0: 1, X1: 4, Y1: 4}}
	allowed := func(p device.XY) bool { return region.Contains(p) }
	n := &Net{ID: 0, Pins: []device.XY{{X: 1, Y: 1}, {X: 4, Y: 4}}}
	if _, err := RouteAll(g, []*Net{n}, Options{Allowed: allowed}); err != nil {
		t.Fatal(err)
	}
	for _, e := range n.Route {
		a, b := g.EdgeEnds(e)
		if !region.Contains(a) || !region.Contains(b) {
			t.Fatalf("edge %v-%v escapes region", a, b)
		}
	}
	// A pin outside the region must be rejected.
	bad := &Net{ID: 1, Pins: []device.XY{{X: 1, Y: 1}, {X: 7, Y: 7}}}
	if _, err := RouteAll(g, []*Net{bad}, Options{Allowed: allowed}); err == nil {
		t.Fatal("pin outside region accepted")
	}
}

func TestExistingWiringIsExtended(t *testing.T) {
	g := grid(8, 8, 4)
	n := &Net{ID: 3, Pins: []device.XY{{X: 1, Y: 1}, {X: 6, Y: 1}}}
	if _, err := RouteAll(g, []*Net{n}, Options{}); err != nil {
		t.Fatal(err)
	}
	old := n.Route
	// The net gains a sink next to the middle of its wire: the extension
	// grows from the nearest node of the old tree, not from the source.
	ext := &Net{ID: 3, Pins: append(n.Pins, device.XY{X: 4, Y: 3})}
	if _, err := RouteAll(g, []*Net{ext}, Options{Existing: map[int][]EdgeID{3: old}}); err != nil {
		t.Fatal(err)
	}
	if len(ext.Route) != 2 {
		t.Fatalf("extension has %d edges, want 2", len(ext.Route))
	}
	full := &Net{ID: 3, Pins: ext.Pins, Route: append(append([]EdgeID(nil), old...), ext.Route...)}
	if err := CheckTree(g, full); err != nil {
		t.Fatal(err)
	}
}

func TestFixedUseBlocksChannels(t *testing.T) {
	// Saturate the direct channel with fixed usage; the net must detour.
	g := grid(6, 1, 1)
	fixed := make([]int16, g.NumEdges())
	// Block the horizontal edge between (3,1) and (4,1).
	fixed[g.hEdge(3, 1)] = 1
	n := &Net{ID: 0, Pins: []device.XY{{X: 1, Y: 1}, {X: 6, Y: 1}}}
	if _, err := RouteAll(g, []*Net{n}, Options{FixedUse: fixed}); err != nil {
		t.Fatal(err)
	}
	if err := CheckRoutes(g, []*Net{n}, fixed); err != nil {
		t.Fatal(err)
	}
	if n.RouteLen() <= 5 {
		t.Fatalf("net did not detour around fixed usage: len=%d", n.RouteLen())
	}
}

func TestLockedNetsUntouched(t *testing.T) {
	g := grid(6, 6, 2)
	locked := &Net{ID: 0, Pins: []device.XY{{X: 1, Y: 1}, {X: 3, Y: 1}}, Locked: true,
		Route: []EdgeID{g.hEdge(1, 1), g.hEdge(2, 1)}}
	moving := &Net{ID: 1, Pins: []device.XY{{X: 1, Y: 2}, {X: 5, Y: 2}}}
	before := append([]EdgeID(nil), locked.Route...)
	if _, err := RouteAll(g, []*Net{locked, moving}, Options{FixedUse: UsageOf(g, []*Net{locked})}); err != nil {
		t.Fatal(err)
	}
	if len(locked.Route) != len(before) {
		t.Fatal("locked net modified")
	}
	for i := range before {
		if locked.Route[i] != before[i] {
			t.Fatal("locked net edges changed")
		}
	}
}

func TestInfeasibleCongestionErrors(t *testing.T) {
	// 3 nets across a single-track one-row device: only 1 can use each
	// channel; with H=1 there are 3 parallel rows (y=0,1,2) so 3 nets fit,
	// 4 cannot.
	g := grid(4, 1, 1)
	var nets []*Net
	for i := 0; i < 4; i++ {
		nets = append(nets, &Net{ID: i, Pins: []device.XY{{X: 0, Y: 1}, {X: 5, Y: 1}}})
	}
	_, err := RouteAll(g, nets, Options{MaxIters: 12})
	if err == nil {
		t.Fatal("infeasible routing succeeded")
	}
}

func TestSplitRoute(t *testing.T) {
	g := grid(8, 8, 4)
	n := &Net{ID: 0, Pins: []device.XY{{X: 1, Y: 2}, {X: 8, Y: 2}}}
	if _, err := RouteAll(g, []*Net{n}, Options{}); err != nil {
		t.Fatal(err)
	}
	region := device.RectSet{{X0: 1, Y0: 1, X1: 4, Y1: 4}}
	inside, outside, crossings := SplitRoute(g, n.Route, region)
	if len(inside)+len(outside) != len(n.Route) {
		t.Fatal("split lost edges")
	}
	if len(crossings) != 1 {
		t.Fatalf("crossings = %v, want exactly 1", crossings)
	}
	if !region.Contains(crossings[0]) {
		t.Fatal("crossing point must lie inside the region")
	}
	for _, e := range inside {
		a, b := g.EdgeEnds(e)
		if !region.Contains(a) || !region.Contains(b) {
			t.Fatal("inside edge not inside")
		}
	}
}

func TestCheckTreeCatchesBadRoutes(t *testing.T) {
	g := grid(6, 6, 2)
	// Disconnected route.
	n := &Net{ID: 0, Pins: []device.XY{{X: 1, Y: 1}, {X: 4, Y: 1}},
		Route: []EdgeID{g.hEdge(1, 1)}}
	if err := CheckTree(g, n); err == nil {
		t.Fatal("disconnected route passed")
	}
	// Cyclic route.
	cyc := &Net{ID: 1, Pins: []device.XY{{X: 1, Y: 1}, {X: 2, Y: 2}},
		Route: []EdgeID{g.hEdge(1, 1), g.vEdge(2, 1), g.hEdge(1, 2), g.vEdge(1, 1)}}
	if err := CheckTree(g, cyc); err == nil {
		t.Fatal("cyclic route passed")
	}
}

func TestDeterministicRouting(t *testing.T) {
	mk := func() []*Net {
		r := rand.New(rand.NewSource(5))
		var nets []*Net
		for i := 0; i < 30; i++ {
			nets = append(nets, &Net{ID: i, Pins: []device.XY{
				{X: 1 + r.Intn(8), Y: 1 + r.Intn(8)},
				{X: 1 + r.Intn(8), Y: 1 + r.Intn(8)},
				{X: 1 + r.Intn(8), Y: 1 + r.Intn(8)},
			}})
		}
		return nets
	}
	g := grid(8, 8, 3)
	n1, n2 := mk(), mk()
	r1, err := RouteAll(g, n1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RouteAll(grid(8, 8, 3), n2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Expansions != r2.Expansions || r1.Wirelength != r2.Wirelength {
		t.Fatalf("nondeterministic: %v vs %v", r1, r2)
	}
	for i := range n1 {
		if len(n1[i].Route) != len(n2[i].Route) {
			t.Fatalf("net %d route differs", i)
		}
	}
}

// Property: random multi-pin nets on a roomy grid always route into valid
// trees within capacity.
func TestQuickRandomNets(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(71))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := grid(10, 10, 6)
		var nets []*Net
		for i := 0; i < 20; i++ {
			k := 2 + r.Intn(4)
			pins := make([]device.XY, k)
			for j := range pins {
				pins[j] = device.XY{X: 1 + r.Intn(10), Y: 1 + r.Intn(10)}
			}
			nets = append(nets, &Net{ID: i, Pins: pins})
		}
		if _, err := RouteAll(g, nets, Options{}); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return CheckRoutes(g, nets, nil) == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRoute100Nets(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	g := grid(20, 20, 8)
	mk := func() []*Net {
		var nets []*Net
		for i := 0; i < 100; i++ {
			nets = append(nets, &Net{ID: i, Pins: []device.XY{
				{X: 1 + r.Intn(20), Y: 1 + r.Intn(20)},
				{X: 1 + r.Intn(20), Y: 1 + r.Intn(20)},
			}})
		}
		return nets
	}
	nets := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			n.Route = nil
		}
		if _, err := RouteAll(g, nets, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// cloneNets deep-copies a net list so two routers can solve the identical
// problem independently.
func cloneNets(nets []*Net) []*Net {
	out := make([]*Net, len(nets))
	for i, n := range nets {
		cp := *n
		cp.Pins = append([]device.XY(nil), n.Pins...)
		cp.Route = append([]EdgeID(nil), n.Route...)
		out[i] = &cp
	}
	return out
}

// TestRouterReuseMatchesRouteAll is the persistent-engine differential
// oracle: a Router reused across many independent routing problems must
// produce routes, effort and wirelength bit-identical to a fresh RouteAll
// per problem.
func TestRouterReuseMatchesRouteAll(t *testing.T) {
	g := grid(10, 10, 4)
	shared := NewRouter(g)
	rng := rand.New(rand.NewSource(17))
	for pass := 0; pass < 8; pass++ {
		var nets []*Net
		for i := 0; i < 25; i++ {
			k := 2 + rng.Intn(3)
			pins := make([]device.XY, k)
			for j := range pins {
				pins[j] = device.XY{X: 1 + rng.Intn(10), Y: 1 + rng.Intn(10)}
			}
			nets = append(nets, &Net{ID: i, Pins: pins})
		}
		fresh := cloneNets(nets)
		rs, err := shared.Route(nets, Options{})
		if err != nil {
			t.Fatalf("pass %d shared: %v", pass, err)
		}
		rf, err := RouteAll(grid(10, 10, 4), fresh, Options{})
		if err != nil {
			t.Fatalf("pass %d fresh: %v", pass, err)
		}
		if rs.Expansions != rf.Expansions || rs.Wirelength != rf.Wirelength || rs.Iters != rf.Iters {
			t.Fatalf("pass %d: results diverge: shared %+v fresh %+v", pass, rs, rf)
		}
		for i := range nets {
			if len(nets[i].Route) != len(fresh[i].Route) {
				t.Fatalf("pass %d net %d: route length %d vs %d", pass, i, len(nets[i].Route), len(fresh[i].Route))
			}
			for j := range nets[i].Route {
				if nets[i].Route[j] != fresh[i].Route[j] {
					t.Fatalf("pass %d net %d: edge %d differs", pass, i, j)
				}
			}
		}
	}
}

// TestRouterChargeMatchesFixedUse pins the incremental entry point: locked
// wiring accumulated through BeginPass/Charge must route identically to
// the same usage passed as Options.FixedUse.
func TestRouterChargeMatchesFixedUse(t *testing.T) {
	g := grid(8, 8, 2)
	locked := &Net{ID: 0, Pins: []device.XY{{X: 1, Y: 3}, {X: 6, Y: 3}}}
	if _, err := RouteAll(g, []*Net{locked}, Options{}); err != nil {
		t.Fatal(err)
	}
	mk := func() []*Net {
		return []*Net{
			{ID: 1, Pins: []device.XY{{X: 1, Y: 3}, {X: 6, Y: 4}}},
			{ID: 2, Pins: []device.XY{{X: 2, Y: 2}, {X: 5, Y: 6}}},
		}
	}
	viaFixed := mk()
	if _, err := RouteAll(g, viaFixed, Options{FixedUse: UsageOf(g, []*Net{locked})}); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g)
	r.BeginPass()
	r.Charge(locked.Route)
	viaCharge := mk()
	if _, err := r.Route(viaCharge, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range viaFixed {
		if len(viaFixed[i].Route) != len(viaCharge[i].Route) {
			t.Fatalf("net %d: lengths differ", i)
		}
		for j := range viaFixed[i].Route {
			if viaFixed[i].Route[j] != viaCharge[i].Route[j] {
				t.Fatalf("net %d edge %d differs", i, j)
			}
		}
	}
	// The pass accumulator must reset cleanly.
	r.BeginPass()
	for e, u := range r.fixed {
		if u != 0 {
			t.Fatalf("edge %d still charged after BeginPass", e)
		}
	}
}

func BenchmarkRouterReuse(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	g := grid(20, 20, 8)
	var nets []*Net
	for i := 0; i < 100; i++ {
		nets = append(nets, &Net{ID: i, Pins: []device.XY{
			{X: 1 + r.Intn(20), Y: 1 + r.Intn(20)},
			{X: 1 + r.Intn(20), Y: 1 + r.Intn(20)},
		}})
	}
	router := NewRouter(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			n.Route = nil
		}
		if _, err := router.Route(nets, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"fmt"
	"sort"
	"time"

	"fpgadbg/internal/device"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/pack"
	"fpgadbg/internal/route"
)

// Spec configures tiling.
type Spec struct {
	// Overhead is the resource slack left for future logic introduction
	// (the paper's Table 1 uses ≈0.20; below 0.10 there is no room to
	// maneuver).
	Overhead float64
	// TileFrac is the target tile size as a fraction of the device's CLB
	// sites (Figure 5 sweeps 0.025, 0.05, 0.15, 0.25). Defaults to 0.10.
	TileFrac float64
	// ChannelWidth overrides the device routing capacity (0 = default).
	ChannelWidth int
	// Seed drives every randomized phase deterministically.
	Seed int64
	// PlaceEffort scales annealing work (1.0 = full quality).
	PlaceEffort float64
	// UniformBoundaries disables the min-crossing boundary adjustment
	// sweep (ablation knob; the default draws boundaries minimizing
	// inter-tile interconnect, per the paper's §3.2).
	UniformBoundaries bool
	// OverlayReserve withholds this many tracks per channel segment from
	// the initial user routing, leaving headroom for debug-overlay trunk
	// wiring routed afterwards at full capacity (RouteReserved). Zero
	// disables the reservation; incremental reroutes never re-apply it —
	// once routed, the trunks physically occupy the reserved tracks.
	OverlayReserve int
	// Obs, when set, receives place/route spans for the initial build
	// (BuildMapped clears it from the stored Layout.Spec afterwards, so
	// a cached pristine layout never retains a campaign's trace; attach
	// per-campaign traces with Layout.SetObs instead). Never part of any
	// layout digest or cache key.
	Obs *obs.Trace
}

func (s Spec) withDefaults() Spec {
	if s.Overhead == 0 {
		s.Overhead = 0.20
	}
	if s.TileFrac == 0 {
		s.TileFrac = 0.10
	}
	if s.PlaceEffort == 0 {
		s.PlaceEffort = 1.0
	}
	return s
}

// Tile is one independent physical partition.
type Tile struct {
	ID   int
	Rect device.Rect
	// Row/Col locate the tile in the tile grid (adjacency).
	Row, Col int
}

// Effort accumulates back-end CAD work. PlaceMoves and RouteExpansions are
// deterministic counters; Wall is host time.
type Effort struct {
	PlaceMoves      int64
	RouteExpansions int64
	CellsPlaced     int
	NetsRouted      int
	Wall            time.Duration
}

// Work is the combined deterministic effort metric used for Figure 5
// speedups.
func (e Effort) Work() float64 { return float64(e.PlaceMoves + e.RouteExpansions) }

// Add accumulates another effort sample.
func (e *Effort) Add(o Effort) {
	e.PlaceMoves += o.PlaceMoves
	e.RouteExpansions += o.RouteExpansions
	e.CellsPlaced += o.CellsPlaced
	e.NetsRouted += o.NetsRouted
	e.Wall += o.Wall
}

func (e Effort) String() string {
	return fmt.Sprintf("moves=%d expansions=%d cells=%d nets=%d wall=%s",
		e.PlaceMoves, e.RouteExpansions, e.CellsPlaced, e.NetsRouted, e.Wall)
}

// Layout is a tiled, placed-and-routed design. NL is the live logical
// netlist (already technology mapped); debugging changes mutate it through
// ApplyDelta.
type Layout struct {
	Spec   Spec
	Dev    device.Device
	NL     *netlist.Netlist
	Packed *pack.Packed
	Grid   *route.Grid

	// CLBLoc is the placement of every CLB (indexed like Packed.CLBs).
	CLBLoc []device.XY
	// PadLoc places one IOB pad per PI and PO net.
	PadLoc map[netlist.NetID]device.XY
	// Routes holds the routed tree of every net spanning 2+ blocks.
	Routes map[netlist.NetID]*route.Net

	Tiles []Tile
	// tileRows/tileCols are the boundary cut positions used to map sites
	// to tiles.
	rowCuts, colCuts []int

	// BuildEffort is the cost of the initial place-and-route.
	BuildEffort Effort

	// fixedWiring is permanently locked non-netlist wiring (debug-overlay
	// trunks placed by RouteReserved). It is charged into every routing
	// pass so user nets route around it, counted against channel capacity
	// by Check, and copied by Clone; ApplyDelta never rips it up.
	fixedWiring []route.EdgeID

	seq int // fresh-name counter for inserted logic

	// router is the persistent routing engine, created lazily and reused
	// across every incremental update; clones start without one. See
	// txn.go.
	router *route.Router
	// journal and txnDepth implement layout transactions (txn.go).
	journal  []physOp
	txnDepth int
	// obs is the attached per-campaign trace; place/route spans land
	// on it. Clones start detached (nil) and a nil trace is a no-op, so
	// untraced layouts pay one pointer test per phase. See SetObs.
	obs *obs.Trace
}

// SetObs attaches a per-campaign trace: subsequent placement anneals
// and router passes open place/route spans on it.
// Pass nil to detach — the service's layout pool does this at check-in
// so a pooled layout never writes to a finished campaign's trace.
func (l *Layout) SetObs(t *obs.Trace) {
	l.obs = t
	if l.router != nil {
		l.router.Obs = t
	}
}

// NumCLBs returns the number of occupied CLB sites (the paper's "design
// size" unit).
func (l *Layout) NumCLBs() int {
	n := 0
	for i := range l.Packed.CLBs {
		if !l.Packed.Empty(i) {
			n++
		}
	}
	return n
}

// TileOf returns the tile index containing a CLB site.
func (l *Layout) TileOf(p device.XY) int {
	col := cutIndex(l.colCuts, p.X)
	row := cutIndex(l.rowCuts, p.Y)
	return row*len(l.colCuts) + col
}

// cutIndex returns the index of the interval of cuts containing v, where
// cuts[i] is the inclusive upper bound of interval i.
func cutIndex(cuts []int, v int) int {
	for i, hi := range cuts {
		if v <= hi {
			return i
		}
	}
	return len(cuts) - 1
}

// TileUsage returns, per tile, the number of occupied CLB sites.
func (l *Layout) TileUsage() []int {
	used := make([]int, len(l.Tiles))
	for i := range l.Packed.CLBs {
		if l.Packed.Empty(i) {
			continue
		}
		used[l.TileOf(l.CLBLoc[i])]++
	}
	return used
}

// TileFree returns, per tile, the number of free CLB sites — the slack
// available for test-logic introduction.
func (l *Layout) TileFree() []int {
	used := l.TileUsage()
	free := make([]int, len(l.Tiles))
	for i, t := range l.Tiles {
		free[i] = t.Rect.Area() - used[i]
	}
	return free
}

// Neighbors returns tile IDs adjacent (edge-sharing) to t in the tile
// grid.
func (l *Layout) Neighbors(t int) []int {
	rows, cols := len(l.rowCuts), len(l.colCuts)
	r, c := t/cols, t%cols
	var out []int
	if r > 0 {
		out = append(out, t-cols)
	}
	if r < rows-1 {
		out = append(out, t+cols)
	}
	if c > 0 {
		out = append(out, t-1)
	}
	if c < cols-1 {
		out = append(out, t+1)
	}
	return out
}

// AffectedTiles expands from a seed tile over neighbors until the visited
// tiles hold at least needCLBs free sites — the paper's neighbor-
// recruitment rule behind Figure 3. The seed tile is always affected.
func (l *Layout) AffectedTiles(seed, needCLBs int) ([]int, error) {
	if seed < 0 || seed >= len(l.Tiles) {
		return nil, fmt.Errorf("core: no tile %d", seed)
	}
	free := l.TileFree()
	visited := []int{seed}
	inSet := map[int]bool{seed: true}
	capacity := free[seed]
	for i := 0; capacity < needCLBs; i++ {
		if i >= len(visited) {
			return nil, fmt.Errorf("core: design cannot absorb %d new CLBs (only %d free sites)", needCLBs, capacity)
		}
		for _, nb := range l.Neighbors(visited[i]) {
			if inSet[nb] {
				continue
			}
			inSet[nb] = true
			visited = append(visited, nb)
			capacity += free[nb]
			if capacity >= needCLBs {
				break
			}
		}
	}
	return visited, nil
}

// MaxTestLogic returns the largest per-point test-logic size (in CLBs)
// that k test points can each absorb without recruiting neighbor tiles.
// Points spread round-robin over the tiles with the most slack (the
// debugging engineer places probes where room exists), the paper's
// Figure 4 setup. Clustered distributions divide single-tile slack
// instead; see MaxTestLogicClustered.
func (l *Layout) MaxTestLogic(points int) int {
	if points <= 0 {
		return 0
	}
	free := l.TileFree()
	order := make([]int, len(l.Tiles))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if free[order[i]] != free[order[j]] {
			return free[order[i]] > free[order[j]]
		}
		return order[i] < order[j]
	})
	useTiles := points
	if useTiles > len(order) {
		useTiles = len(order)
	}
	perTile := make([]int, useTiles)
	for p := 0; p < points; p++ {
		perTile[p%useTiles]++
	}
	best := -1
	for i, cnt := range perTile {
		m := free[order[i]] / cnt
		if best == -1 || m < best {
			best = m
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// MaxTestLogicClustered is the clustered-distribution variant: all k
// points land in the tile with the most slack.
func (l *Layout) MaxTestLogicClustered(points int) int {
	if points <= 0 {
		return 0
	}
	free := l.TileFree()
	best := 0
	for _, f := range free {
		if f > best {
			best = f
		}
	}
	return best / points
}

// RegionOf returns the rectangle set covered by the given tiles.
func (l *Layout) RegionOf(tiles []int) device.RectSet {
	rs := make(device.RectSet, 0, len(tiles))
	for _, t := range tiles {
		rs = append(rs, l.Tiles[t].Rect)
	}
	return rs
}

// freshName returns a unique suffix for inserted logic.
func (l *Layout) freshName(base string) string {
	l.setSeq(l.seq + 1)
	return fmt.Sprintf("%s@%d", base, l.seq)
}

package core

import (
	"fmt"
	"math"
	"time"

	"fpgadbg/internal/device"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/obs"
	"fpgadbg/internal/pack"
	"fpgadbg/internal/place"
	"fpgadbg/internal/route"
	"fpgadbg/internal/synth"
)

// Build technology-maps, packs, places and routes a design with the spec's
// resource slack, then draws tile boundaries and locks the layout — the
// paper's pseudo-code steps 4–8 ("re-place-and-route with resource slack;
// draw tile boundaries; lock tile interfaces").
func Build(nl *netlist.Netlist, spec Spec) (*Layout, error) {
	spec = spec.withDefaults()
	mapped, err := synth.TechMap(nl)
	if err != nil {
		return nil, err
	}
	return BuildMapped(mapped, spec)
}

// BuildMapped is Build for a netlist that is already 4-LUT mapped. If the
// device proves unroutable at the requested channel width, the width is
// widened (twice, by 4 tracks) and the flow retried — the real-world
// "move to a bigger part" fallback.
func BuildMapped(mapped *netlist.Netlist, spec Spec) (*Layout, error) {
	spec = spec.withDefaults()
	l, err := buildMappedOnce(mapped, spec)
	for retry := 0; err != nil && retry < 2; retry++ {
		wider := spec
		if wider.ChannelWidth == 0 {
			wider.ChannelWidth = device.DefaultChannelWidth
		}
		wider.ChannelWidth += 4 * (retry + 1)
		var err2 error
		l, err2 = buildMappedOnce(mapped, wider)
		if err2 == nil {
			return l, nil
		}
	}
	return l, err
}

func buildMappedOnce(mapped *netlist.Netlist, spec Spec) (*Layout, error) {
	packed, err := pack.Pack(mapped)
	if err != nil {
		return nil, err
	}
	dev := device.Size(packed.NumCLBs(), spec.Overhead, spec.ChannelWidth)
	// Grow the device minimally until the IOB ring fits all pads
	// (pad-limited parts are a real FPGA phenomenon; grow one edge at a
	// time to keep the area overhead near the requested slack).
	for dev.IOBCapacity() < len(mapped.PIs)+len(mapped.POs) {
		if dev.W <= dev.H {
			dev.W++
		} else {
			dev.H++
		}
	}
	l := &Layout{
		Spec:   spec,
		Dev:    dev,
		NL:     mapped,
		Packed: packed,
		Grid:   route.NewGrid(dev),
		CLBLoc: make([]device.XY, len(packed.CLBs)),
		PadLoc: make(map[netlist.NetID]device.XY),
		Routes: make(map[netlist.NetID]*route.Net),
	}
	l.obs = spec.Obs
	start := time.Now()
	eff, err := l.placeAll(spec.Seed)
	if err != nil {
		return nil, err
	}
	l.BuildEffort.Add(eff)
	eff, err = l.routeAllNets()
	if err != nil {
		return nil, err
	}
	l.BuildEffort.Add(eff)
	l.BuildEffort.Wall = time.Since(start)
	if err := l.drawBoundaries(); err != nil {
		return nil, err
	}
	// Build spans are recorded; detach the trace so a cached pristine
	// layout never writes to the building campaign's finished trace.
	l.SetObs(nil)
	l.Spec.Obs = nil
	return l, nil
}

// pinBound bounds the pins of all nets together: a driver or input pad
// and an output pad per net, and a pin per sink.
func pinBound(nl *netlist.Netlist, fanout [][]netlist.Sink) int {
	n := 2 * len(nl.Nets)
	for _, f := range fanout {
		n += len(f)
	}
	return n
}

// padNets flags the primary-input and primary-output nets by NetID.
func padNets(nl *netlist.Netlist) (isPI, isPO []bool) {
	isPI = make([]bool, len(nl.Nets))
	isPO = make([]bool, len(nl.Nets))
	for _, n := range nl.PIs {
		isPI[n] = true
	}
	for _, n := range nl.POs {
		isPO[n] = true
	}
	return isPI, isPO
}

// netPinTable returns the distinct block pin coordinates of every net
// under the current placement, indexed by NetID (empty for dead nets),
// computed in one pass over the cells. A net lists its driver CLB first
// (or, with no live driver, its primary-input pad), then its sinks' CLBs
// in cell-ID order, then its primary-output pad; a coordinate shared by
// several blocks appears once. The slices share one backing array, so a
// caller that keeps one beyond the current update copies it.
func (l *Layout) netPinTable() [][]device.XY {
	nl := l.NL
	fanout := nl.Fanouts()
	isPI, isPO := padNets(nl)
	table := make([][]device.XY, len(nl.Nets))
	pins := make([]device.XY, 0, pinBound(nl, fanout))
	seen := make([]int32, l.Grid.NumNodes()) // net ID + 1 of the last net to list a node
	for ni := range nl.Nets {
		if nl.Nets[ni].Dead {
			continue
		}
		net := netlist.NetID(ni)
		first := len(pins)
		add := func(p device.XY) {
			if i := l.Grid.NodeIdx(p); seen[i] != int32(ni+1) {
				seen[i] = int32(ni + 1)
				pins = append(pins, p)
			}
		}
		if d := nl.Nets[ni].Driver; d != netlist.NilCell && !nl.Cells[d].Dead {
			add(l.CLBLoc[l.Packed.CellCLB[d]])
		} else if p, ok := l.PadLoc[net]; ok && isPI[ni] {
			add(p)
		}
		for _, sk := range fanout[ni] {
			add(l.CLBLoc[l.Packed.CellCLB[sk.Cell]])
		}
		if isPO[ni] {
			if p, ok := l.PadLoc[net]; ok {
				add(p)
			}
		}
		table[ni] = pins[first:len(pins):len(pins)]
	}
	return table
}

// placeAll performs the initial full placement: every non-empty CLB and
// every pad is movable.
func (l *Layout) placeAll(seed int64) (Effort, error) {
	sp := l.obs.Start(obs.StagePlace)
	defer sp.End()
	prob, clbOfBlock, padOfBlock := l.buildPlaceProblem(nil, nil)
	res, err := place.Anneal(prob, place.Options{Seed: seed, Effort: l.Spec.PlaceEffort})
	if err != nil {
		return Effort{}, err
	}
	l.adoptPlacement(res, clbOfBlock, padOfBlock)
	sp.Add("place-moves", res.Moves)
	sp.Add("cells-placed", int64(len(prob.Blocks)))
	return Effort{PlaceMoves: res.Moves, CellsPlaced: len(prob.Blocks)}, nil
}

// buildPlaceProblem constructs a placement problem from the current state.
// movableCLBs, when non-nil, limits movement to those CLB indices confined
// to region (all other blocks are fixed at their current location); pads
// are movable only in the initial full placement (movableCLBs == nil).
func (l *Layout) buildPlaceProblem(movableCLBs map[int]bool, region device.RectSet) (*place.Problem, []int, []netlist.NetID) {
	nl := l.NL
	prob := &place.Problem{Dev: l.Dev}
	blockOfCLB := make([]place.BlockID, len(l.Packed.CLBs)) // -1: empty CLB
	var clbOfBlock []int
	var padOfBlock []netlist.NetID

	for i := range l.Packed.CLBs {
		blockOfCLB[i] = -1
		if l.Packed.Empty(i) {
			continue
		}
		b := place.Block{Name: fmt.Sprintf("clb%d", i), Class: place.ClassCLB}
		switch {
		case movableCLBs == nil:
			// initial placement: free
		case movableCLBs[i]:
			b.Region = region
		default:
			b.Fixed = true
			b.Loc = l.CLBLoc[i]
			b.HasLoc = true
		}
		blockOfCLB[i] = place.BlockID(len(prob.Blocks))
		prob.Blocks = append(prob.Blocks, b)
		clbOfBlock = append(clbOfBlock, i)
		padOfBlock = append(padOfBlock, netlist.NilNet)
	}
	padBlock := make(map[netlist.NetID]place.BlockID)
	addPad := func(net netlist.NetID) {
		if _, ok := padBlock[net]; ok {
			return
		}
		b := place.Block{Name: "pad_" + nl.NetName(net), Class: place.ClassIOB}
		if movableCLBs != nil {
			b.Fixed = true
			b.Loc = l.PadLoc[net]
			b.HasLoc = true
		}
		padBlock[net] = place.BlockID(len(prob.Blocks))
		prob.Blocks = append(prob.Blocks, b)
		clbOfBlock = append(clbOfBlock, -1)
		padOfBlock = append(padOfBlock, net)
	}
	for _, pi := range nl.PIs {
		addPad(pi)
	}
	for _, po := range nl.POs {
		addPad(po)
	}

	// Placement nets: one per logical net spanning 2+ blocks, listing its
	// distinct blocks — driver first, then sinks in cell-ID order, then
	// its pad — from one fanout pass over the cells.
	fanout := nl.Fanouts()
	isPI, isPO := padNets(nl)
	blocks := make([]place.BlockID, 0, pinBound(nl, fanout))
	seen := make([]int32, len(prob.Blocks)) // net ID + 1 of the last net to list a block
	for ni := range nl.Nets {
		if nl.Nets[ni].Dead {
			continue
		}
		net := netlist.NetID(ni)
		first := len(blocks)
		add := func(b place.BlockID) {
			if b >= 0 && seen[b] != int32(ni+1) {
				seen[b] = int32(ni + 1)
				blocks = append(blocks, b)
			}
		}
		if d := nl.Nets[ni].Driver; d != netlist.NilCell && !nl.Cells[d].Dead {
			add(blockOfCLB[l.Packed.CellCLB[d]])
		}
		for _, sk := range fanout[ni] {
			add(blockOfCLB[l.Packed.CellCLB[sk.Cell]])
		}
		if isPI[ni] || isPO[ni] {
			if b, ok := padBlock[net]; ok {
				add(b)
			}
		}
		if len(blocks)-first >= 2 {
			prob.Nets = append(prob.Nets, place.Net{Blocks: blocks[first:len(blocks):len(blocks)]})
		} else {
			blocks = blocks[:first]
		}
	}
	return prob, clbOfBlock, padOfBlock
}

// adoptPlacement writes an annealing result back into the layout
// (journaled when a transaction is open; unchanged locations are
// skipped).
func (l *Layout) adoptPlacement(res *place.Result, clbOfBlock []int, padOfBlock []netlist.NetID) {
	for bi, clb := range clbOfBlock {
		if clb >= 0 {
			l.setCLBLoc(clb, res.Loc[bi])
		} else if padOfBlock[bi] != netlist.NilNet {
			l.setPad(padOfBlock[bi], res.Loc[bi])
		}
	}
}

// routeAllNets routes every multi-block net from scratch through the
// layout's persistent router.
func (l *Layout) routeAllNets() (Effort, error) {
	nl := l.NL
	var nets []*route.Net
	byID := make(map[int]netlist.NetID)
	table := l.netPinTable()
	for ni := range nl.Nets {
		if nl.Nets[ni].Dead {
			continue
		}
		pins := table[ni]
		if len(pins) < 2 {
			delete(l.Routes, netlist.NetID(ni))
			continue
		}
		rn := &route.Net{ID: ni, Pins: pins}
		nets = append(nets, rn)
		byID[ni] = netlist.NetID(ni)
	}
	router := l.ensureRouter()
	router.BeginPass()
	router.Charge(l.fixedWiring)
	res, err := router.Route(nets, route.Options{CapReserve: l.Spec.OverlayReserve})
	if err != nil {
		return Effort{}, err
	}
	l.Routes = make(map[netlist.NetID]*route.Net, len(nets))
	for _, rn := range nets {
		l.Routes[byID[rn.ID]] = rn
	}
	return Effort{RouteExpansions: res.Expansions, NetsRouted: len(nets)}, nil
}

// RouteReserved routes extra non-netlist nets (debug-overlay trunks) on
// top of the finished user routing, at full channel capacity, and locks
// the resulting wiring permanently into the layout (FixedWiring). Every
// existing route is charged as fixed usage, so user wiring is never
// ripped up; subsequent incremental passes charge the trunk wiring the
// same way. The caller keeps the routed nets for its own bookkeeping.
func (l *Layout) RouteReserved(nets []*route.Net) (Effort, error) {
	router := l.ensureRouter()
	router.BeginPass()
	router.Charge(l.fixedWiring)
	for _, rn := range l.Routes {
		router.Charge(rn.Route)
	}
	res, err := router.Route(nets, route.Options{})
	if err != nil {
		return Effort{}, err
	}
	for _, rn := range nets {
		l.fixedWiring = append(l.fixedWiring, rn.Route...)
	}
	return Effort{RouteExpansions: res.Expansions, NetsRouted: len(nets)}, nil
}

// FixedWiring exposes the permanently locked overlay trunk wiring
// (read-only; indexed growth only via RouteReserved).
func (l *Layout) FixedWiring() []route.EdgeID { return l.fixedWiring }

// drawBoundaries partitions the CLB area into a near-square grid of tiles
// targeting the spec's tile size and, unless disabled, nudges each cut
// line to the position crossing the fewest routed nets (the paper's
// "inter-tile interconnect is minimized").
func (l *Layout) drawBoundaries() error {
	sites := l.Dev.NumCLBSites()
	target := int(math.Round(l.Spec.TileFrac * float64(sites)))
	if target < 1 {
		target = 1
	}
	nT := int(math.Round(float64(sites) / float64(target)))
	if nT < 1 {
		nT = 1
	}
	cols := int(math.Round(math.Sqrt(float64(nT) * float64(l.Dev.W) / float64(l.Dev.H))))
	if cols < 1 {
		cols = 1
	}
	if cols > l.Dev.W {
		cols = l.Dev.W
	}
	rows := (nT + cols - 1) / cols
	if rows < 1 {
		rows = 1
	}
	if rows > l.Dev.H {
		rows = l.Dev.H
	}

	l.colCuts = uniformCuts(l.Dev.W, cols)
	l.rowCuts = uniformCuts(l.Dev.H, rows)
	if !l.Spec.UniformBoundaries {
		hHist, vHist := l.crossingHistograms()
		l.colCuts = adjustCuts(l.colCuts, l.Dev.W, hHist)
		l.rowCuts = adjustCuts(l.rowCuts, l.Dev.H, vHist)
	}

	l.Tiles = l.Tiles[:0]
	prevY := 0
	for r, yc := range l.rowCuts {
		prevX := 0
		for c, xc := range l.colCuts {
			l.Tiles = append(l.Tiles, Tile{
				ID:   len(l.Tiles),
				Rect: device.Rect{X0: prevX + 1, Y0: prevY + 1, X1: xc, Y1: yc},
				Row:  r, Col: c,
			})
			prevX = xc
		}
		prevY = yc
	}
	for _, t := range l.Tiles {
		if t.Rect.Area() < 1 {
			return fmt.Errorf("core: degenerate tile %v (device %v, %dx%d tiles)", t.Rect, l.Dev, rows, cols)
		}
	}
	return nil
}

// uniformCuts returns k inclusive upper bounds evenly dividing 1..extent.
func uniformCuts(extent, k int) []int {
	cuts := make([]int, k)
	for i := 0; i < k; i++ {
		cuts[i] = (i + 1) * extent / k
	}
	cuts[k-1] = extent
	return cuts
}

// crossingHistograms counts routed edges crossing each vertical line
// (hHist[x] = horizontal edges from x to x+1) and each horizontal line.
func (l *Layout) crossingHistograms() (hHist, vHist []int) {
	hHist = make([]int, l.Dev.W+1)
	vHist = make([]int, l.Dev.H+1)
	for _, rn := range l.Routes {
		for _, e := range rn.Route {
			a, b := l.Grid.EdgeEnds(e)
			if a.Y == b.Y { // horizontal edge crosses vertical line at min(x)
				x := a.X
				if b.X < x {
					x = b.X
				}
				if x >= 0 && x < len(hHist) {
					hHist[x]++
				}
			} else {
				y := a.Y
				if b.Y < y {
					y = b.Y
				}
				if y >= 0 && y < len(vHist) {
					vHist[y]++
				}
			}
		}
	}
	return hHist, vHist
}

// adjustCuts shifts each internal cut to the locally minimal crossing
// count, preserving strict monotonicity. The shift window is a quarter of
// the nominal tile span so tiles keep comparable capacities; tiny spans
// are left uniform.
func adjustCuts(cuts []int, extent int, hist []int) []int {
	span := extent / len(cuts)
	dev := span / 4
	if dev < 1 {
		return cuts
	}
	out := append([]int(nil), cuts...)
	for i := 0; i < len(out)-1; i++ {
		lo := 1
		if i > 0 {
			lo = out[i-1] + 1
		}
		hi := extent - 1
		if i < len(out)-1 {
			hi = out[i+1] - 1
		}
		best, bestCross := out[i], math.MaxInt
		for cand := out[i] - dev; cand <= out[i]+dev; cand++ {
			if cand < lo || cand > hi || cand >= len(hist) {
				continue
			}
			if hist[cand] < bestCross {
				best, bestCross = cand, hist[cand]
			}
		}
		out[i] = best
	}
	return out
}

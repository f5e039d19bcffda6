package place

import (
	"fmt"
	"math"
	"math/rand"

	"fpgadbg/internal/device"
)

// BlockID indexes Problem.Blocks.
type BlockID int32

// Class separates CLB blocks (interior sites) from IOB blocks (perimeter
// ring sites).
type Class uint8

const (
	// ClassCLB blocks occupy interior CLB sites.
	ClassCLB Class = iota
	// ClassIOB blocks occupy perimeter IOB sites.
	ClassIOB
)

// Block is one placeable object (a packed CLB or an I/O pad).
type Block struct {
	Name  string
	Class Class
	// Fixed blocks keep Loc and are never moved.
	Fixed bool
	// Region, when non-empty, confines the block to sites inside the
	// rectangle set.
	Region device.RectSet
	// Loc is the block's position; meaningful when HasLoc (always for
	// Fixed blocks, optionally as a warm start for movable ones).
	Loc    device.XY
	HasLoc bool
}

// Net connects two or more blocks; its cost is its half-perimeter
// wirelength (HPWL). A block listed twice on one net counts once.
type Net struct {
	Blocks []BlockID
}

// Problem is a placement instance.
type Problem struct {
	Dev    device.Device
	Blocks []Block
	Nets   []Net
}

// Options tune the annealer.
type Options struct {
	Seed int64
	// Effort scales the moves per temperature; 1.0 is the default
	// full-quality schedule, smaller is faster and coarser.
	Effort float64
	// WarmStart keeps provided locations and starts at a reduced
	// temperature — the "incremental place" mode.
	WarmStart bool
}

// Result reports the final placement and the work performed.
type Result struct {
	Loc      []device.XY
	Cost     int   // total HPWL of the final placement
	Moves    int64 // attempted moves: the deterministic effort counter
	Accepted int64
}

type annealer struct {
	p       *Problem
	opt     Options
	rng     *rand.Rand
	wExt    int         // grid width including ring, for site indexing
	xy      []device.XY // grid coordinate of every slot index
	occ     []BlockID
	loc     []device.XY
	pos     []int // slot index per block (includes the IOB plane)
	movable []BlockID
	// allowed site indices per block (shared slices where possible)
	allowed [][]int
	// pins lists every net's distinct blocks back to back: net ni owns
	// pins[pinAt[ni]:pinAt[ni+1]]. blockNets is the inverse, each net
	// once per block.
	pins      []BlockID
	pinAt     []int32
	blockNets [][]int32
	// netCost caches every net's HPWL at the current placement; cost is
	// their sum. Both change only when a move is accepted.
	netCost []int
	cost    int
	// Scratch of the last evalSwap: the distinct nets the move touches
	// and their HPWL after it. stamp[ni] == epoch marks a net already
	// listed in touched.
	touched  []int32
	after    []int
	stamp    []uint32
	epoch    uint32
	moves    int64
	accepted int64
}

// Anneal solves the placement problem. It returns an error when the
// problem is infeasible (more blocks than sites in some class or region).
func Anneal(p *Problem, opt Options) (*Result, error) {
	a, err := newAnnealer(p, opt)
	if err != nil {
		return nil, err
	}
	if len(a.movable) > 0 {
		a.run()
	}
	return &Result{
		Loc:      a.loc,
		Cost:     a.cost,
		Moves:    a.moves,
		Accepted: a.accepted,
	}, nil
}

// newAnnealer places every block at its initial site and fills the net
// cost cache.
func newAnnealer(p *Problem, opt Options) (*annealer, error) {
	if opt.Effort <= 0 {
		opt.Effort = 1.0
	}
	a := &annealer{
		p:    p,
		opt:  opt,
		rng:  rand.New(rand.NewSource(opt.Seed)),
		wExt: p.Dev.W + 2,
		loc:  make([]device.XY, len(p.Blocks)),
		pos:  make([]int, len(p.Blocks)),
	}
	if err := a.init(); err != nil {
		return nil, err
	}
	a.netCost = make([]int, len(p.Nets))
	a.stamp = make([]uint32, len(p.Nets))
	for ni := range p.Nets {
		a.netCost[ni] = a.netHPWL(int32(ni))
		a.cost += a.netCost[ni]
	}
	return a, nil
}

// Site indexing uses two planes: plane 0 holds every grid position (CLB
// sites and the first IOB slot); plane 1 holds the second IOB slot of each
// perimeter position (device.IOBsPerSite == 2). Both slots map to the same
// coordinate for wirelength and routing purposes.
func (a *annealer) planeSize() int { return a.wExt * (a.p.Dev.H + 2) }

func (a *annealer) siteIdx(p device.XY) int { return p.Y*a.wExt + p.X }

func (a *annealer) init() error {
	dev := a.p.Dev
	a.occ = make([]BlockID, device.IOBsPerSite*a.planeSize())
	a.xy = make([]device.XY, len(a.occ))
	for i := range a.occ {
		a.occ[i] = -1
		idx := i % a.planeSize()
		a.xy[i] = device.XY{X: idx % a.wExt, Y: idx / a.wExt}
	}
	// Precompute the unconstrained site lists.
	clbSites := make([]int, 0, dev.NumCLBSites())
	for _, s := range dev.CLBSites() {
		clbSites = append(clbSites, a.siteIdx(s))
	}
	iobSites := make([]int, 0, dev.IOBCapacity())
	for plane := 0; plane < device.IOBsPerSite; plane++ {
		for _, s := range dev.IOBSites() {
			iobSites = append(iobSites, plane*a.planeSize()+a.siteIdx(s))
		}
	}
	a.allowed = make([][]int, len(a.p.Blocks))
	regionCache := make(map[string][]int)
	for bi := range a.p.Blocks {
		b := &a.p.Blocks[bi]
		base := clbSites
		if b.Class == ClassIOB {
			base = iobSites
		}
		if len(b.Region) == 0 {
			a.allowed[bi] = base
			continue
		}
		key := fmt.Sprintf("%d%v", b.Class, b.Region)
		if cached, ok := regionCache[key]; ok {
			a.allowed[bi] = cached
			continue
		}
		var filtered []int
		for _, s := range base {
			if b.Region.Contains(a.xy[s]) {
				filtered = append(filtered, s)
			}
		}
		regionCache[key] = filtered
		a.allowed[bi] = filtered
	}

	// Fixed blocks and warm starts first.
	for bi := range a.p.Blocks {
		b := &a.p.Blocks[bi]
		if !b.Fixed {
			continue
		}
		if !b.HasLoc {
			return fmt.Errorf("place: fixed block %q has no location", b.Name)
		}
		if err := a.claim(BlockID(bi), b.Loc); err != nil {
			return err
		}
	}
	placed := make([]bool, len(a.p.Blocks))
	for bi := range a.p.Blocks {
		b := &a.p.Blocks[bi]
		if b.Fixed {
			placed[bi] = true
			continue
		}
		a.movable = append(a.movable, BlockID(bi))
		if b.HasLoc {
			if err := a.claim(BlockID(bi), b.Loc); err != nil {
				return err
			}
			placed[bi] = true
		}
	}
	// Remaining movable blocks go to free allowed sites.
	for _, bid := range a.movable {
		if placed[bid] {
			continue
		}
		sites := a.allowed[bid]
		start := 0
		if len(sites) > 0 {
			start = a.rng.Intn(len(sites))
		}
		ok := false
		for k := 0; k < len(sites); k++ {
			s := sites[(start+k)%len(sites)]
			if a.occ[s] == -1 {
				a.occ[s] = bid
				a.pos[bid] = s
				a.loc[bid] = a.xy[s]
				placed[bid] = true
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("place: no free site for block %q (class %d, %d candidate sites)",
				a.p.Blocks[bid].Name, a.p.Blocks[bid].Class, len(sites))
		}
	}

	// Net pins and per-block net membership. Nets are visited in order,
	// so a block listed twice on a net is the last entry of its list.
	a.blockNets = make([][]int32, len(a.p.Blocks))
	a.pinAt = make([]int32, 0, len(a.p.Nets)+1)
	for ni := range a.p.Nets {
		a.pinAt = append(a.pinAt, int32(len(a.pins)))
		for _, b := range a.p.Nets[ni].Blocks {
			if l := a.blockNets[b]; len(l) == 0 || l[len(l)-1] != int32(ni) {
				a.blockNets[b] = append(l, int32(ni))
				a.pins = append(a.pins, b)
			}
		}
	}
	a.pinAt = append(a.pinAt, int32(len(a.pins)))
	return nil
}

func (a *annealer) claim(bid BlockID, p device.XY) error {
	b := &a.p.Blocks[bid]
	wantCLB := b.Class == ClassCLB
	if wantCLB && !a.p.Dev.IsCLB(p) || !wantCLB && !a.p.Dev.IsIOB(p) {
		return fmt.Errorf("place: block %q location %v has wrong site class", b.Name, p)
	}
	if len(b.Region) > 0 && !b.Region.Contains(p) {
		return fmt.Errorf("place: block %q location %v outside its region", b.Name, p)
	}
	idx := a.siteIdx(p)
	planes := 1
	if b.Class == ClassIOB {
		planes = device.IOBsPerSite
	}
	for plane := 0; plane < planes; plane++ {
		s := plane*a.planeSize() + idx
		if a.occ[s] == -1 {
			a.occ[s] = bid
			a.pos[bid] = s
			a.loc[bid] = p
			return nil
		}
	}
	return fmt.Errorf("place: site %v full; cannot place %q", p, b.Name)
}

// netHPWL computes a net's half-perimeter wirelength from the current
// block locations.
func (a *annealer) netHPWL(ni int32) int {
	pins := a.pins[a.pinAt[ni]:a.pinAt[ni+1]]
	if len(pins) < 2 {
		return 0
	}
	first := a.loc[pins[0]]
	minX, maxX, minY, maxY := first.X, first.X, first.Y, first.Y
	for _, b := range pins[1:] {
		p := a.loc[b]
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	return (maxX - minX) + (maxY - minY)
}

// run executes the annealing schedule.
func (a *annealer) run() {
	n := len(a.movable)
	movesPerT := int(a.opt.Effort * 6 * math.Pow(float64(n), 4.0/3.0))
	if movesPerT < 20 {
		movesPerT = 20
	}
	// Initial temperature from the cost deviation of a short random walk.
	t := a.initialTemp(n)
	if a.opt.WarmStart {
		t /= 20
	}
	rlim := float64(max(a.p.Dev.W, a.p.Dev.H))
	minT := 0.005 * float64(a.cost+1) / float64(len(a.p.Nets)+1)
	for {
		acc := 0
		for m := 0; m < movesPerT; m++ {
			if a.tryMove(t, int(rlim)) {
				acc++
			}
		}
		rAccept := float64(acc) / float64(movesPerT)
		// VPR-style schedule adaptation.
		switch {
		case rAccept > 0.96:
			t *= 0.5
		case rAccept > 0.8:
			t *= 0.9
		case rAccept > 0.15:
			t *= 0.95
		default:
			t *= 0.8
		}
		rlim *= 1 - 0.44 + rAccept
		if rlim < 1 {
			rlim = 1
		}
		if m := float64(max(a.p.Dev.W, a.p.Dev.H)); rlim > m {
			rlim = m
		}
		if t < minT || (rAccept < 0.005 && t < minT*100) {
			break
		}
	}
	// Greedy zero-temperature cleanup pass.
	for m := 0; m < movesPerT/2; m++ {
		a.tryMove(0, 3)
	}
}

func (a *annealer) initialTemp(n int) float64 {
	probes := n
	if probes > 500 {
		probes = 500
	}
	if probes < 10 {
		probes = 10
	}
	var sum, sumSq float64
	for i := 0; i < probes; i++ {
		d := float64(a.probeDelta())
		sum += d
		sumSq += d * d
	}
	mean := sum / float64(probes)
	variance := sumSq/float64(probes) - mean*mean
	if variance < 1e-9 {
		return 1.0
	}
	return 20 * math.Sqrt(variance)
}

// probeDelta evaluates (without applying) a random move's cost delta.
func (a *annealer) probeDelta() int {
	bid := a.movable[a.rng.Intn(len(a.movable))]
	sites := a.allowed[bid]
	if len(sites) == 0 {
		return 0
	}
	s := sites[a.rng.Intn(len(sites))]
	other := a.occ[s]
	if other != -1 && (a.p.Blocks[other].Fixed || other == bid) {
		return 0
	}
	return a.evalSwap(bid, s, other)
}

// evalSwap computes the exact cost delta of moving bid to slot s,
// swapping with other if present, without applying the move. Only the
// nets touching the two blocks are recomputed, under the two blocks'
// would-be locations; their cost before the move comes from the cache.
// The touched nets and their new costs stay in the scratch for commit.
func (a *annealer) evalSwap(bid BlockID, s int, other BlockID) int {
	a.epoch++
	if a.epoch == 0 { // wrapped: no stale stamp may alias the new epoch
		clear(a.stamp)
		a.epoch = 1
	}
	a.touched = a.touched[:0]
	bidLoc := a.loc[bid]
	a.loc[bid] = a.xy[s]
	a.touchNets(bid)
	var otherLoc device.XY
	if other != -1 {
		otherLoc = a.loc[other]
		a.loc[other] = bidLoc
		a.touchNets(other)
	}
	a.after = a.after[:0]
	delta := 0
	for _, ni := range a.touched {
		c := a.netHPWL(ni)
		a.after = append(a.after, c)
		delta += c - a.netCost[ni]
	}
	a.loc[bid] = bidLoc
	if other != -1 {
		a.loc[other] = otherLoc
	}
	return delta
}

// touchNets appends b's nets not yet in the scratch to it.
func (a *annealer) touchNets(b BlockID) {
	for _, ni := range a.blockNets[b] {
		if a.stamp[ni] != a.epoch {
			a.stamp[ni] = a.epoch
			a.touched = append(a.touched, ni)
		}
	}
}

// commit applies the move evalSwap last evaluated, with its delta.
func (a *annealer) commit(bid BlockID, s int, other BlockID, delta int) {
	a.applySwap(bid, a.pos[bid], s, other)
	for i, ni := range a.touched {
		a.netCost[ni] = a.after[i]
	}
	a.cost += delta
}

func (a *annealer) applySwap(bid BlockID, from, to int, other BlockID) {
	a.occ[from] = -1
	if other != -1 {
		a.occ[from] = other
		a.pos[other] = from
		a.loc[other] = a.xy[from]
	}
	a.occ[to] = bid
	a.pos[bid] = to
	a.loc[bid] = a.xy[to]
}

// tryMove attempts one annealing move and reports acceptance.
func (a *annealer) tryMove(t float64, rlim int) bool {
	a.moves++
	bid := a.movable[a.rng.Intn(len(a.movable))]
	sites := a.allowed[bid]
	if len(sites) == 0 {
		return false
	}
	// Sample a few candidates, preferring one inside the range window.
	cur := a.loc[bid]
	s := -1
	for k := 0; k < 8; k++ {
		cand := sites[a.rng.Intn(len(sites))]
		p := a.xy[cand]
		if abs(p.X-cur.X) <= rlim && abs(p.Y-cur.Y) <= rlim {
			s = cand
			break
		}
		s = cand
	}
	if s == a.pos[bid] {
		return false
	}
	other := a.occ[s]
	if other != -1 {
		ob := &a.p.Blocks[other]
		if ob.Fixed {
			return false
		}
		// The displaced block must be allowed at our current site.
		if len(ob.Region) > 0 && !ob.Region.Contains(cur) {
			return false
		}
		if ob.Class != a.p.Blocks[bid].Class {
			return false
		}
	}
	delta := a.evalSwap(bid, s, other)
	accept := delta <= 0
	if !accept && t > 0 {
		accept = a.rng.Float64() < math.Exp(-float64(delta)/t)
	}
	if accept {
		a.commit(bid, s, other, delta)
		a.accepted++
	}
	return accept
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

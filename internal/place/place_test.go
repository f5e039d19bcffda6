package place

import (
	"math/rand"
	"testing"

	"fpgadbg/internal/device"
)

// chainProblem builds a linear chain of n CLB blocks with nearest-neighbor
// nets — the optimal placement is a snake with HPWL n-1.
func chainProblem(n int, dev device.Device) *Problem {
	p := &Problem{Dev: dev}
	for i := 0; i < n; i++ {
		p.Blocks = append(p.Blocks, Block{Name: "b", Class: ClassCLB})
	}
	for i := 0; i+1 < n; i++ {
		p.Nets = append(p.Nets, Net{Blocks: []BlockID{BlockID(i), BlockID(i + 1)}})
	}
	return p
}

func checkLegal(t *testing.T, p *Problem, r *Result) {
	t.Helper()
	// A CLB site holds one block; an IOB ring site holds IOBsPerSite.
	seen := make(map[device.XY][]int)
	for bi := range p.Blocks {
		loc := r.Loc[bi]
		b := &p.Blocks[bi]
		seen[loc] = append(seen[loc], bi)
		limit := 1
		if b.Class == ClassIOB {
			limit = device.IOBsPerSite
		}
		if len(seen[loc]) > limit {
			t.Fatalf("blocks %v share site %v", seen[loc], loc)
		}
		if b.Class == ClassCLB && !p.Dev.IsCLB(loc) {
			t.Fatalf("CLB block %d on non-CLB site %v", bi, loc)
		}
		if b.Class == ClassIOB && !p.Dev.IsIOB(loc) {
			t.Fatalf("IOB block %d on non-IOB site %v", bi, loc)
		}
		if len(b.Region) > 0 && !b.Region.Contains(loc) {
			t.Fatalf("block %d at %v escaped region %v", bi, loc, b.Region)
		}
		if b.Fixed && loc != b.Loc {
			t.Fatalf("fixed block %d moved from %v to %v", bi, b.Loc, loc)
		}
	}
}

func TestAnnealChainQuality(t *testing.T) {
	dev := device.Device{W: 6, H: 6, ChannelWidth: 8}
	p := chainProblem(20, dev)
	r, err := Anneal(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, p, r)
	// Random placement of a 20-chain on a 6x6 grid averages ~4 per net
	// (~76 total); annealing should get well under half of that.
	if r.Cost > 40 {
		t.Fatalf("chain cost %d too high", r.Cost)
	}
	if r.Moves == 0 || r.Accepted == 0 {
		t.Fatal("no annealing work recorded")
	}
}

func TestFixedBlocksNeverMove(t *testing.T) {
	dev := device.Device{W: 5, H: 5, ChannelWidth: 8}
	p := chainProblem(10, dev)
	p.Blocks[0].Fixed = true
	p.Blocks[0].Loc = device.XY{X: 3, Y: 3}
	p.Blocks[0].HasLoc = true
	p.Blocks[5].Fixed = true
	p.Blocks[5].Loc = device.XY{X: 1, Y: 1}
	p.Blocks[5].HasLoc = true
	r, err := Anneal(p, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, p, r)
}

func TestRegionConstraint(t *testing.T) {
	dev := device.Device{W: 8, H: 8, ChannelWidth: 8}
	p := chainProblem(12, dev)
	region := device.RectSet{{X0: 1, Y0: 1, X1: 4, Y1: 4}}
	for i := range p.Blocks {
		p.Blocks[i].Region = region
	}
	r, err := Anneal(p, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, p, r)
}

func TestIOBlocksOnRing(t *testing.T) {
	dev := device.Device{W: 4, H: 4, ChannelWidth: 8}
	p := &Problem{Dev: dev}
	for i := 0; i < 4; i++ {
		p.Blocks = append(p.Blocks, Block{Name: "clb", Class: ClassCLB})
	}
	for i := 0; i < 6; i++ {
		p.Blocks = append(p.Blocks, Block{Name: "io", Class: ClassIOB})
	}
	for i := 0; i < 4; i++ {
		p.Nets = append(p.Nets, Net{Blocks: []BlockID{BlockID(i), BlockID(4 + i)}})
	}
	r, err := Anneal(p, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, p, r)
}

func TestInfeasibleProblems(t *testing.T) {
	dev := device.Device{W: 2, H: 2, ChannelWidth: 8}
	// 5 CLB blocks on 4 sites.
	p := chainProblem(5, dev)
	if _, err := Anneal(p, Options{Seed: 5}); err == nil {
		t.Fatal("overfull device accepted")
	}
	// Region too small.
	p2 := chainProblem(3, device.Device{W: 4, H: 4, ChannelWidth: 8})
	for i := range p2.Blocks {
		p2.Blocks[i].Region = device.RectSet{{X0: 1, Y0: 1, X1: 1, Y1: 1}}
	}
	if _, err := Anneal(p2, Options{Seed: 6}); err == nil {
		t.Fatal("overfull region accepted")
	}
	// Fixed block without a location.
	p3 := chainProblem(2, dev)
	p3.Blocks[0].Fixed = true
	if _, err := Anneal(p3, Options{Seed: 7}); err == nil {
		t.Fatal("fixed block without location accepted")
	}
	// Two fixed blocks on the same site.
	p4 := chainProblem(2, dev)
	for i := 0; i < 2; i++ {
		p4.Blocks[i].Fixed = true
		p4.Blocks[i].Loc = device.XY{X: 1, Y: 1}
		p4.Blocks[i].HasLoc = true
	}
	if _, err := Anneal(p4, Options{Seed: 8}); err == nil {
		t.Fatal("site conflict accepted")
	}
	// Fixed CLB on an IOB site.
	p5 := chainProblem(1, dev)
	p5.Blocks[0].Fixed = true
	p5.Blocks[0].Loc = device.XY{X: 0, Y: 1}
	p5.Blocks[0].HasLoc = true
	if _, err := Anneal(p5, Options{Seed: 9}); err == nil {
		t.Fatal("wrong site class accepted")
	}
}

func TestWarmStartKeepsLocations(t *testing.T) {
	dev := device.Device{W: 6, H: 6, ChannelWidth: 8}
	p := chainProblem(8, dev)
	r1, err := Anneal(p, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Re-anneal from the converged placement with WarmStart: cost must not
	// regress much and effort is lower.
	p2 := chainProblem(8, dev)
	for i := range p2.Blocks {
		p2.Blocks[i].Loc = r1.Loc[i]
		p2.Blocks[i].HasLoc = true
	}
	r2, err := Anneal(p2, Options{Seed: 11, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, p2, r2)
	if float64(r2.Cost) > float64(r1.Cost)*1.5+2 {
		t.Fatalf("warm start regressed: %d -> %d", r1.Cost, r2.Cost)
	}
}

func TestDeterminism(t *testing.T) {
	dev := device.Device{W: 6, H: 6, ChannelWidth: 8}
	r1, err := Anneal(chainProblem(15, dev), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Anneal(chainProblem(15, dev), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != r2.Cost || r1.Moves != r2.Moves {
		t.Fatalf("same seed differs: cost %d/%d moves %d/%d", r1.Cost, r2.Cost, r1.Moves, r2.Moves)
	}
	for i := range r1.Loc {
		if r1.Loc[i] != r2.Loc[i] {
			t.Fatalf("location %d differs", i)
		}
	}
}

func TestEffortScalesWork(t *testing.T) {
	dev := device.Device{W: 8, H: 8, ChannelWidth: 8}
	rLow, err := Anneal(chainProblem(30, dev), Options{Seed: 1, Effort: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rHigh, err := Anneal(chainProblem(30, dev), Options{Seed: 1, Effort: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if rHigh.Moves <= rLow.Moves {
		t.Fatalf("effort did not scale moves: %d vs %d", rLow.Moves, rHigh.Moves)
	}
}

func TestRegionLocalReplaceLeavesOutsideAlone(t *testing.T) {
	// The tiling primitive: everything outside one rect is fixed; blocks
	// inside are re-placed within it.
	dev := device.Device{W: 8, H: 8, ChannelWidth: 8}
	p := chainProblem(30, dev)
	r1, err := Anneal(p, Options{Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	tile := device.RectSet{{X0: 1, Y0: 1, X1: 4, Y1: 4}}
	p2 := chainProblem(30, dev)
	insideCount := 0
	for i := range p2.Blocks {
		p2.Blocks[i].Loc = r1.Loc[i]
		p2.Blocks[i].HasLoc = true
		if tile.Contains(r1.Loc[i]) {
			p2.Blocks[i].Region = tile
			insideCount++
		} else {
			p2.Blocks[i].Fixed = true
		}
	}
	if insideCount == 0 {
		t.Skip("no blocks landed in the tile for this seed")
	}
	r2, err := Anneal(p2, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, p2, r2)
	for i := range p2.Blocks {
		if p2.Blocks[i].Fixed && r2.Loc[i] != r1.Loc[i] {
			t.Fatalf("outside block %d moved", i)
		}
		if !p2.Blocks[i].Fixed && !tile.Contains(r2.Loc[i]) {
			t.Fatalf("inside block %d escaped the tile", i)
		}
	}
}

func TestTileEffortScalesWithRegionSize(t *testing.T) {
	// Re-placing a small tile must cost far fewer moves than re-placing
	// the whole design — the heart of Figure 5.
	dev := device.Device{W: 12, H: 12, ChannelWidth: 8}
	n := 100
	full := chainProblem(n, dev)
	rFull, err := Anneal(full, Options{Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	tile := device.RectSet{{X0: 1, Y0: 1, X1: 3, Y1: 3}}
	local := chainProblem(n, dev)
	movable := 0
	for i := range local.Blocks {
		local.Blocks[i].Loc = rFull.Loc[i]
		local.Blocks[i].HasLoc = true
		if tile.Contains(rFull.Loc[i]) {
			local.Blocks[i].Region = tile
			movable++
		} else {
			local.Blocks[i].Fixed = true
		}
	}
	if movable == 0 {
		t.Skip("empty tile for this seed")
	}
	rLocal, err := Anneal(local, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if rLocal.Moves*4 > rFull.Moves {
		t.Fatalf("tile re-place too expensive: %d vs full %d", rLocal.Moves, rFull.Moves)
	}
}

func TestRandomStress(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		dev := device.Device{W: 5 + r.Intn(5), H: 5 + r.Intn(5), ChannelWidth: 8}
		nBlocks := 1 + r.Intn(dev.NumCLBSites())
		p := &Problem{Dev: dev}
		for i := 0; i < nBlocks; i++ {
			p.Blocks = append(p.Blocks, Block{Class: ClassCLB})
		}
		for i := 0; i < nBlocks*2; i++ {
			a, b := BlockID(r.Intn(nBlocks)), BlockID(r.Intn(nBlocks))
			if a != b {
				p.Nets = append(p.Nets, Net{Blocks: []BlockID{a, b}})
			}
		}
		res, err := Anneal(p, Options{Seed: int64(trial), Effort: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		checkLegal(t, p, res)
	}
}

func BenchmarkAnneal200(b *testing.B) {
	dev := device.Device{W: 16, H: 16, ChannelWidth: 8}
	for i := 0; i < b.N; i++ {
		if _, err := Anneal(chainProblem(200, dev), Options{Seed: 1, Effort: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

package place

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"fpgadbg/internal/device"
)

// randomProblem builds a seeded, feasible placement instance that mixes
// everything the annealer handles: CLB blocks, IOB blocks over both ring
// planes, fixed blocks, region-confined blocks, warm-start locations and
// nets of 1 to 12 pins. Feasibility comes from drawing one legal
// assignment first and deriving every constraint from it.
func randomProblem(seed int64) (*Problem, Options) {
	r := rand.New(rand.NewSource(seed))
	dev := device.Device{W: 3 + r.Intn(8), H: 3 + r.Intn(8), ChannelWidth: 8}
	opt := Options{Seed: r.Int63(), Effort: 0.2 + 0.5*r.Float64(), WarmStart: r.Intn(3) == 0}

	clbSites := dev.CLBSites()
	r.Shuffle(len(clbSites), func(i, j int) { clbSites[i], clbSites[j] = clbSites[j], clbSites[i] })
	var iobSlots []device.XY // each ring site twice: one per IOB plane
	for _, s := range dev.IOBSites() {
		iobSlots = append(iobSlots, s, s)
	}
	r.Shuffle(len(iobSlots), func(i, j int) { iobSlots[i], iobSlots[j] = iobSlots[j], iobSlots[i] })

	var region device.RectSet
	if r.Intn(2) == 0 {
		x0, y0 := 1+r.Intn(dev.W), 1+r.Intn(dev.H)
		region = device.RectSet{{X0: x0, Y0: y0, X1: x0 + r.Intn(dev.W-x0+1), Y1: y0 + r.Intn(dev.H-y0+1)}}
	}

	p := &Problem{Dev: dev}
	add := func(class Class, at device.XY) {
		b := Block{Name: "b", Class: class, Loc: at}
		switch {
		case r.Intn(5) == 0:
			b.Fixed, b.HasLoc = true, true
		case opt.WarmStart || r.Intn(4) == 0:
			b.HasLoc = true
		}
		if class == ClassCLB && !b.Fixed && region.Contains(at) && r.Intn(2) == 0 {
			b.Region = region
		}
		p.Blocks = append(p.Blocks, b)
	}
	for _, s := range clbSites[:1+r.Intn(len(clbSites)*3/4)] {
		add(ClassCLB, s)
	}
	for _, s := range iobSlots[:r.Intn(len(iobSlots)/2+1)] {
		add(ClassIOB, s)
	}

	n := len(p.Blocks)
	for i := 0; i < 2*n; i++ {
		pins := 2 + r.Intn(4)
		switch r.Intn(10) {
		case 0:
			pins = 1
		case 1:
			pins = 6 + r.Intn(7)
		}
		if pins > n {
			pins = n
		}
		var net Net
		for _, b := range r.Perm(n)[:pins] {
			net.Blocks = append(net.Blocks, BlockID(b))
		}
		p.Nets = append(p.Nets, net)
	}
	return p, opt
}

// annealFingerprint hashes everything a placement run reports.
func annealFingerprint(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(res.Cost))
	put(res.Moves)
	put(res.Accepted)
	for _, l := range res.Loc {
		put(int64(l.X))
		put(int64(l.Y))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// pinnedAnneals are the fingerprints of Anneal on randomProblem(0..31),
// recorded before move evaluation switched to cached per-net costs. The
// cached evaluation must reproduce every location, move count and
// acceptance count exactly.
var pinnedAnneals = []string{
	"cbdab3f53f56f0fe",
	"74130209b4676d2e",
	"0763a8fbe9388241",
	"7af76b0cb559e8de",
	"f35fed240bffbebe",
	"0c8e4c806ed395a4",
	"c951d536c0769b15",
	"251eb34614731ccb",
	"ed92a63d4926dc06",
	"0a51f3aff6e48836",
	"46ef5689530d147d",
	"3e745ca6f8fe66f9",
	"e7c63d2fc6e84d1b",
	"da40c961e69e2973",
	"538fa296f37d1d71",
	"694fcf4ec465ad32",
	"fe07a140da15e763",
	"be7ad8b2d2c16f36",
	"617562ce7a44b621",
	"6166647da111b6a7",
	"3c6715231744760b",
	"7a6d735a604be3cb",
	"1d0db02ae16389ec",
	"25506bb69c21690d",
	"0f9dd6a7d0551288",
	"9a2f8f07ed57c3e2",
	"b3102abd5af1470b",
	"0754e85a9028a74c",
	"de11baea3e34b86d",
	"d775e5bb5a1c1842",
	"4374e9c185b0a4c9",
	"7e1621a7a184f49d",
}

func TestAnnealPinned(t *testing.T) {
	for i := range pinnedAnneals {
		p, opt := randomProblem(int64(i))
		res, err := Anneal(p, opt)
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		if got := annealFingerprint(res); got != pinnedAnneals[i] {
			t.Errorf("problem %d: fingerprint %s, pinned %s (moves %d, accepted %d)",
				i, got, pinnedAnneals[i], res.Moves, res.Accepted)
		}
	}
}

func TestRandomProblemsFeasible(t *testing.T) {
	for i := int64(0); i < 64; i++ {
		p, opt := randomProblem(i)
		res, err := Anneal(p, opt)
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		checkLegal(t, p, res)
	}
}

// TestIncrementalCostExact drives the annealer's move loop by hand on
// random problems and, after every accepted move, recomputes the whole
// placement cost from scratch: the cached per-net costs and their running
// sum must match it exactly. Interleaved probe evaluations must leave
// both untouched.
func TestIncrementalCostExact(t *testing.T) {
	for i := int64(0); i < 48; i++ {
		p, opt := randomProblem(i)
		a, err := newAnnealer(p, opt)
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		if len(a.movable) == 0 {
			continue
		}
		temp := float64(a.cost+1) / float64(len(p.Nets)+1)
		for m := 0; m < 3000; m++ {
			if m%7 == 0 {
				a.probeDelta()
			}
			if !a.tryMove(temp*float64(m%5)/4, 1+m%max(p.Dev.W, p.Dev.H)) {
				continue
			}
			total := 0
			for ni := range p.Nets {
				want := a.netHPWL(int32(ni))
				if a.netCost[ni] != want {
					t.Fatalf("problem %d move %d: net %d cached %d, recomputed %d", i, m, ni, a.netCost[ni], want)
				}
				total += want
			}
			if a.cost != total {
				t.Fatalf("problem %d move %d: incremental cost %d, recomputed %d", i, m, a.cost, total)
			}
		}
		if a.accepted == 0 {
			t.Fatalf("problem %d: no move accepted", i)
		}
	}
}

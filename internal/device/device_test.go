package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSizeMeetsCapacity(t *testing.T) {
	cases := []struct {
		clbs     int
		overhead float64
	}{
		{56, 0.20}, {98, 0.20}, {235, 0.20}, {900, 0.19}, {1050, 0.20}, {1, 0.5}, {10, 0},
	}
	for _, tc := range cases {
		d := Size(tc.clbs, tc.overhead, 0)
		need := int(math.Ceil(float64(tc.clbs) * (1 + tc.overhead)))
		if d.NumCLBSites() < need {
			t.Errorf("Size(%d,%.2f) = %v too small for %d", tc.clbs, tc.overhead, d, need)
		}
		// Should not be wildly oversized: one full row of slack at most.
		if d.NumCLBSites() >= need+d.W+d.H {
			t.Errorf("Size(%d,%.2f) = %v oversized (need %d)", tc.clbs, tc.overhead, d, need)
		}
		if d.ChannelWidth != DefaultChannelWidth {
			t.Errorf("default channel width not applied")
		}
	}
}

func TestSiteClassification(t *testing.T) {
	d := Device{W: 4, H: 3, ChannelWidth: 8}
	if !d.IsCLB(XY{1, 1}) || !d.IsCLB(XY{4, 3}) {
		t.Fatal("CLB corners misclassified")
	}
	if d.IsCLB(XY{0, 1}) || d.IsCLB(XY{5, 3}) {
		t.Fatal("IOB classified as CLB")
	}
	if !d.IsIOB(XY{0, 1}) || !d.IsIOB(XY{5, 3}) || !d.IsIOB(XY{2, 0}) || !d.IsIOB(XY{2, 4}) {
		t.Fatal("perimeter not IOB")
	}
	if d.IsIOB(XY{0, 0}) || d.IsIOB(XY{5, 4}) {
		t.Fatal("corner should be unusable")
	}
	if d.IsIOB(XY{2, 2}) {
		t.Fatal("interior is not IOB")
	}
	if len(d.CLBSites()) != 12 {
		t.Fatalf("CLB sites = %d", len(d.CLBSites()))
	}
	if len(d.IOBSites()) != d.NumIOBSites() || d.NumIOBSites() != 14 {
		t.Fatalf("IOB sites = %d (want 14)", len(d.IOBSites()))
	}
	for _, p := range d.IOBSites() {
		if !d.IsIOB(p) {
			t.Fatalf("IOBSites emitted non-IOB %v", p)
		}
	}
}

func TestRectOps(t *testing.T) {
	r := Rect{1, 1, 3, 2}
	if r.Area() != 6 {
		t.Fatalf("area = %d", r.Area())
	}
	if !r.Contains(XY{3, 2}) || r.Contains(XY{4, 2}) {
		t.Fatal("contains wrong")
	}
	o := Rect{4, 1, 5, 2}
	if r.Intersects(o) {
		t.Fatal("disjoint rects intersect")
	}
	u := r.Union(o)
	if u != (Rect{1, 1, 5, 2}) {
		t.Fatalf("union = %v", u)
	}
	s := RectSet{r, o}
	if !s.Contains(XY{5, 1}) || s.Contains(XY{6, 1}) {
		t.Fatal("set contains wrong")
	}
}

func TestManhattan(t *testing.T) {
	if ManhattanDist(XY{1, 1}, XY{4, 3}) != 5 {
		t.Fatal("distance wrong")
	}
}

// Property: every in-bounds coordinate is exactly one of CLB, IOB, or
// corner.
func TestQuickPartition(t *testing.T) {
	prop := func(wRaw, hRaw uint8, xRaw, yRaw uint8) bool {
		d := Device{W: 1 + int(wRaw%20), H: 1 + int(hRaw%20), ChannelWidth: 8}
		p := XY{int(xRaw) % (d.W + 2), int(yRaw) % (d.H + 2)}
		classes := 0
		if d.IsCLB(p) {
			classes++
		}
		if d.IsIOB(p) {
			classes++
		}
		if d.IsCorner(p) {
			classes++
		}
		return classes == 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

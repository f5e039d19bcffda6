package device

import (
	"fmt"
	"math"
)

// XY is a grid coordinate. Interior coordinates (1..W, 1..H) are CLB
// sites; the surrounding ring (x==0, x==W+1, y==0, or y==H+1) holds IOB
// sites. Corners are unusable.
type XY struct {
	X, Y int
}

func (p XY) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// ManhattanDist is the grid distance between two coordinates.
func ManhattanDist(a, b XY) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Device describes one FPGA.
type Device struct {
	W, H int
	// ChannelWidth is the number of routing tracks available on each
	// channel segment between adjacent grid positions.
	ChannelWidth int
}

// DefaultChannelWidth is generous enough for the benchmark designs while
// still forcing the router to negotiate congestion in dense regions.
const DefaultChannelWidth = 12

// Size returns the smallest near-square device whose CLB capacity is at
// least ceil(numCLBs × (1+overhead)). overhead is the paper's resource
// slack knob (Table 1 uses ≈0.20).
func Size(numCLBs int, overhead float64, channelWidth int) Device {
	if channelWidth <= 0 {
		channelWidth = DefaultChannelWidth
	}
	need := int(math.Ceil(float64(numCLBs) * (1 + overhead)))
	if need < 1 {
		need = 1
	}
	w := int(math.Ceil(math.Sqrt(float64(need))))
	for w*w < need {
		w++
	}
	h := w
	// Shrink one dimension if a rectangle still fits.
	for w*(h-1) >= need {
		h--
	}
	return Device{W: w, H: h, ChannelWidth: channelWidth}
}

// NumCLBSites returns the CLB capacity.
func (d Device) NumCLBSites() int { return d.W * d.H }

// InBounds reports whether p lies on the device grid including the IOB
// ring.
func (d Device) InBounds(p XY) bool {
	return p.X >= 0 && p.X <= d.W+1 && p.Y >= 0 && p.Y <= d.H+1
}

// IsCLB reports whether p is a CLB site.
func (d Device) IsCLB(p XY) bool {
	return p.X >= 1 && p.X <= d.W && p.Y >= 1 && p.Y <= d.H
}

// IsCorner reports whether p is one of the four unusable corners.
func (d Device) IsCorner(p XY) bool {
	return (p.X == 0 || p.X == d.W+1) && (p.Y == 0 || p.Y == d.H+1)
}

// IsIOB reports whether p is an IOB site on the perimeter ring.
func (d Device) IsIOB(p XY) bool {
	if !d.InBounds(p) || d.IsCorner(p) {
		return false
	}
	return p.X == 0 || p.X == d.W+1 || p.Y == 0 || p.Y == d.H+1
}

// CLBSites lists all CLB sites in row-major order.
func (d Device) CLBSites() []XY {
	out := make([]XY, 0, d.W*d.H)
	for y := 1; y <= d.H; y++ {
		for x := 1; x <= d.W; x++ {
			out = append(out, XY{x, y})
		}
	}
	return out
}

// IOBSites lists all IOB sites clockwise from (1,0).
func (d Device) IOBSites() []XY {
	var out []XY
	for x := 1; x <= d.W; x++ {
		out = append(out, XY{x, 0})
	}
	for y := 1; y <= d.H; y++ {
		out = append(out, XY{d.W + 1, y})
	}
	for x := d.W; x >= 1; x-- {
		out = append(out, XY{x, d.H + 1})
	}
	for y := d.H; y >= 1; y-- {
		out = append(out, XY{0, y})
	}
	return out
}

// IOBsPerSite is the number of I/O blocks sharing each perimeter grid
// position (the XC4000 family pairs two IOBs per edge position, e.g. the
// XC4005's 14×14 array exposes 112 IOBs).
const IOBsPerSite = 2

// NumIOBSites returns the number of perimeter grid positions.
func (d Device) NumIOBSites() int { return 2*d.W + 2*d.H }

// IOBCapacity returns the total number of placeable I/O pads.
func (d Device) IOBCapacity() int { return IOBsPerSite * d.NumIOBSites() }

func (d Device) String() string {
	return fmt.Sprintf("xc-sim %dx%d (CLBs=%d, IOBs=%d, W_ch=%d)", d.W, d.H, d.NumCLBSites(), d.NumIOBSites(), d.ChannelWidth)
}

// Rect is an inclusive rectangle of grid coordinates, the shape of a tile.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Contains reports whether p lies inside the rectangle.
func (r Rect) Contains(p XY) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Area returns the number of grid positions covered.
func (r Rect) Area() int {
	if r.X1 < r.X0 || r.Y1 < r.Y0 {
		return 0
	}
	return (r.X1 - r.X0 + 1) * (r.Y1 - r.Y0 + 1)
}

// Intersects reports whether two rectangles overlap.
func (r Rect) Intersects(o Rect) bool {
	return r.X0 <= o.X1 && o.X0 <= r.X1 && r.Y0 <= o.Y1 && o.Y0 <= r.Y1
}

// Union returns the bounding box of two rectangles.
func (r Rect) Union(o Rect) Rect {
	return Rect{min(r.X0, o.X0), min(r.Y0, o.Y0), max(r.X1, o.X1), max(r.Y1, o.Y1)}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d..%d]x[%d..%d]", r.X0, r.X1, r.Y0, r.Y1)
}

// RectSet is a union of rectangles (affected tiles are generally not
// rectangular in aggregate).
type RectSet []Rect

// Contains reports whether p lies in any member rectangle.
func (s RectSet) Contains(p XY) bool {
	for _, r := range s {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

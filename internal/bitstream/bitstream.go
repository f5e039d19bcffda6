package bitstream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"fpgadbg/internal/core"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/route"
)

// GlobalFrame addresses the non-tile frame.
const GlobalFrame = -1

// Image is a frame-addressed configuration bitstream.
type Image struct {
	Frames map[int][]byte
}

// Size returns the total byte count.
func (im *Image) Size() int {
	n := 0
	for _, f := range im.Frames {
		n += len(f)
	}
	return n
}

// Equal compares two images frame by frame.
func (im *Image) Equal(other *Image) bool {
	if len(im.Frames) != len(other.Frames) {
		return false
	}
	for k, v := range im.Frames {
		if !bytes.Equal(v, other.Frames[k]) {
			return false
		}
	}
	return true
}

// Digest returns a stable hash of the image.
func (im *Image) Digest() string {
	keys := make([]int, 0, len(im.Frames))
	for k := range im.Frames {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	h := sha256.New()
	for _, k := range keys {
		binary.Write(h, binary.LittleEndian, int64(k))
		h.Write(im.Frames[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// Full generates the complete configuration image of a layout.
func Full(l *core.Layout) (*Image, error) {
	im := &Image{Frames: make(map[int][]byte)}
	for t := range l.Tiles {
		frame, err := tileFrame(l, t)
		if err != nil {
			return nil, err
		}
		im.Frames[t] = frame
	}
	im.Frames[GlobalFrame] = globalFrame(l)
	return im, nil
}

// Frames names the frames a layout change rewrote: its affected tiles,
// the tiles it rewired beyond them, and GlobalFrame when it changed
// wiring between tiles or a pad.
func Frames(rep *core.ChangeReport) []int {
	out := append(append([]int(nil), rep.AffectedTiles...), rep.RewiredTiles...)
	if rep.GlobalRewired {
		out = append(out, GlobalFrame)
	}
	sort.Ints(out)
	return out
}

// Partial generates the frames of the given tiles only; GlobalFrame may
// be among them.
func Partial(l *core.Layout, tiles []int) (*Image, error) {
	im := &Image{Frames: make(map[int][]byte)}
	for _, t := range tiles {
		if t == GlobalFrame {
			im.Frames[t] = globalFrame(l)
			continue
		}
		if t < 0 || t >= len(l.Tiles) {
			return nil, fmt.Errorf("bitstream: no tile %d", t)
		}
		frame, err := tileFrame(l, t)
		if err != nil {
			return nil, err
		}
		im.Frames[t] = frame
	}
	return im, nil
}

// Stitch overlays a partial image onto a base image, returning the
// updated configuration (the partial-reconfiguration operation).
func Stitch(base, partial *Image) *Image {
	out := &Image{Frames: make(map[int][]byte, len(base.Frames))}
	for k, v := range base.Frames {
		out.Frames[k] = v
	}
	for k, v := range partial.Frames {
		out.Frames[k] = v
	}
	return out
}

// tileFrame serializes one tile: the CLB configurations placed inside it
// (sorted by site) and every routed edge whose both endpoints lie inside.
func tileFrame(l *core.Layout, t int) ([]byte, error) {
	rect := l.Tiles[t].Rect
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }

	type clbEntry struct {
		site int32
		clb  int
	}
	var clbs []clbEntry
	for i := range l.Packed.CLBs {
		if l.Packed.Empty(i) {
			continue
		}
		p := l.CLBLoc[i]
		if rect.Contains(p) {
			clbs = append(clbs, clbEntry{site: int32(p.Y)<<16 | int32(p.X), clb: i})
		}
	}
	sort.Slice(clbs, func(i, j int) bool { return clbs[i].site < clbs[j].site })
	w(int32(len(clbs)))
	for _, e := range clbs {
		w(e.site)
		if err := writeCLBConfig(&buf, l, e.clb); err != nil {
			return nil, err
		}
	}

	edges := collectEdges(l, func(a, b int32) bool {
		pa, pb := l.Grid.NodeXY(a), l.Grid.NodeXY(b)
		return rect.Contains(pa) && rect.Contains(pb)
	})
	w(int32(len(edges)))
	for _, e := range edges {
		w(e)
	}
	return buf.Bytes(), nil
}

// globalFrame serializes pad assignments and all routing not confined to a
// single tile.
func globalFrame(l *core.Layout) []byte {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	type pad struct {
		name string
		site int32
	}
	var pads []pad
	for net, p := range l.PadLoc {
		pads = append(pads, pad{name: l.NL.NetName(net), site: int32(p.Y)<<16 | int32(p.X)})
	}
	sort.Slice(pads, func(i, j int) bool { return pads[i].name < pads[j].name })
	w(int32(len(pads)))
	for _, p := range pads {
		w(int32(len(p.name)))
		buf.WriteString(p.name)
		w(p.site)
	}
	edges := collectEdges(l, func(a, b int32) bool {
		pa, pb := l.Grid.NodeXY(a), l.Grid.NodeXY(b)
		for t := range l.Tiles {
			if l.Tiles[t].Rect.Contains(pa) && l.Tiles[t].Rect.Contains(pb) {
				return false
			}
		}
		return true
	})
	w(int32(len(edges)))
	for _, e := range edges {
		w(e)
	}
	return buf.Bytes()
}

// collectEdges gathers (net, edge) pairs passing the filter, sorted.
func collectEdges(l *core.Layout, keep func(a, b int32) bool) []int64 {
	var out []int64
	for net, rn := range l.Routes {
		for _, e := range rn.Route {
			a, b := l.Grid.EdgeEnds(e)
			ai, bi := l.Grid.NodeIdx(a), l.Grid.NodeIdx(b)
			if keep(ai, bi) {
				out = append(out, int64(net)<<32|int64(e))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writeCLBConfig emits one CLB: LUT configuration words (via the 16-bit
// XC4000 LUT word) and flip-flop init values.
func writeCLBConfig(buf *bytes.Buffer, l *core.Layout, clb int) error {
	b := &l.Packed.CLBs[clb]
	w := func(v any) { binary.Write(buf, binary.LittleEndian, v) }
	w(int8(len(b.LUTs)))
	for _, id := range b.LUTs {
		c := &l.NL.Cells[id]
		tt, err := c.Func.TT()
		if err != nil {
			return fmt.Errorf("bitstream: LUT %q: %w", c.Name, err)
		}
		word, err := tt.Word4()
		if err != nil {
			return fmt.Errorf("bitstream: LUT %q: %w", c.Name, err)
		}
		w(word)
		// Pin connections identify the net each LUT input taps.
		w(int8(len(c.Fanin)))
		for _, f := range c.Fanin {
			w(int32(f))
		}
		w(int32(c.Out))
	}
	w(int8(len(b.FFs)))
	for _, id := range b.FFs {
		c := &l.NL.Cells[id]
		w(c.Init)
		w(int32(c.Fanin[0]))
		w(int32(c.Out))
	}
	return nil
}

// Route is re-exported for test helpers needing edge math.
type Route = route.Net

// NetID is re-exported for symmetry.
type NetID = netlist.NetID

package overlay

import (
	"fmt"
	"sort"

	"fpgadbg/internal/core"
	"fpgadbg/internal/device"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/route"
)

// DefaultChannels is the number of time-multiplex observation channels
// planned when the caller does not choose one; it matches the debug
// loop's default probes-per-round, so a typical round is one batch.
const DefaultChannels = 4

// DefaultReserve is the per-segment track reservation
// (core.Spec.OverlayReserve) that leaves headroom for the trunks.
const DefaultReserve = 2

// trunkIDBase keeps trunk net IDs clear of netlist net IDs in router
// telemetry.
const trunkIDBase = 1 << 20

// Plan is the immutable overlay of one built layout: the channel
// assignment covering every live cell output net, plus the routed
// trunk statistics. Built once on the pristine layout, shared
// read-only by every campaign (clones inherit the trunk wiring through
// core.Layout.Clone; the Plan itself is position-independent).
type Plan struct {
	// Channels is the time-multiplex channel count C.
	Channels int
	// Taps is the number of covered nets (every live cell output at
	// plan time).
	Taps int
	// TrunkLen is the total routed trunk wirelength in channel edges —
	// the overlay's routing footprint.
	TrunkLen int
	// RouteExpansions is the one-time routing effort spent on the
	// trunks.
	RouteExpansions int64
	// Readout holds the IOB ring site of each channel's readout pad.
	Readout []device.XY

	chanOf map[string]int // net name -> channel
}

// Build plans and routes the overlay into a freshly built layout:
// every live cell output net is assigned round-robin (in sorted name
// order) to one of channels trunks, each trunk gets a readout site on
// the free IOB ring, and the trunk nets are routed at full channel
// capacity on top of the locked user wiring (core.Layout.RouteReserved).
// channels <= 0 selects DefaultChannels. Build mutates only the
// layout's fixed wiring; call it on the pristine layout before any
// campaign clones it.
func Build(l *core.Layout, channels int) (*Plan, error) {
	if channels <= 0 {
		channels = DefaultChannels
	}
	nl := l.NL
	var names []string
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Dead || c.Out == netlist.NilNet {
			continue
		}
		names = append(names, nl.NetName(c.Out))
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("overlay: no live cell outputs to cover")
	}
	p := &Plan{Channels: channels, Taps: len(names), chanOf: make(map[string]int, len(names))}
	for i, name := range names {
		p.chanOf[name] = i % channels
	}

	readout, err := readoutSites(l, channels)
	if err != nil {
		return nil, err
	}
	p.Readout = readout

	// One multi-pin trunk per channel: the readout pad plus the driver
	// site of every assigned net. The router dedupes coincident pins.
	trunks := make([]*route.Net, channels)
	for ch := 0; ch < channels; ch++ {
		trunks[ch] = &route.Net{ID: trunkIDBase + ch, Pins: []device.XY{readout[ch]}}
	}
	for _, name := range names {
		id, ok := nl.NetByName(name)
		if !ok {
			return nil, fmt.Errorf("overlay: net %q vanished", name)
		}
		d := nl.Nets[id].Driver
		clb, ok := l.Packed.CellCLB[d]
		if !ok {
			return nil, fmt.Errorf("overlay: driver of %q is not packed", name)
		}
		ch := p.chanOf[name]
		trunks[ch].Pins = append(trunks[ch].Pins, l.CLBLoc[clb])
	}
	eff, err := l.RouteReserved(trunks)
	if err != nil {
		return nil, fmt.Errorf("overlay: trunk routing: %w", err)
	}
	p.RouteExpansions = eff.RouteExpansions
	for _, t := range trunks {
		p.TrunkLen += len(t.Route)
	}
	return p, nil
}

// readoutSites picks one free IOB ring site per channel, spread evenly
// along the ring so the trunks approach the edge from different sides.
func readoutSites(l *core.Layout, channels int) ([]device.XY, error) {
	used := make(map[device.XY]int, len(l.PadLoc))
	for _, p := range l.PadLoc {
		used[p]++
	}
	var free []device.XY
	for _, s := range l.Dev.IOBSites() {
		if used[s] < device.IOBsPerSite {
			free = append(free, s)
		}
	}
	if len(free) < channels {
		return nil, fmt.Errorf("overlay: %d free IOB sites for %d readout channels", len(free), channels)
	}
	out := make([]device.XY, channels)
	for ch := 0; ch < channels; ch++ {
		out[ch] = free[ch*len(free)/channels]
	}
	return out, nil
}

// Covers reports whether the plan's observation network reaches a net.
func (p *Plan) Covers(name string) bool {
	_, ok := p.chanOf[name]
	return ok
}

// Channel returns the time-multiplex channel a net is assigned to.
// Test fixture of the overlay and debug tests and BenchmarkProbeSwitch.
func (p *Plan) Channel(name string) (int, bool) {
	ch, ok := p.chanOf[name]
	return ch, ok
}

// Selector is the per-campaign tap configuration of the overlay on one
// working layout. It is not safe for concurrent use; each campaign
// creates its own with NewSelector.
type Selector struct {
	// Switches counts Select calls (configuration mutations).
	Switches int

	plan *Plan
	l    *core.Layout
	cur  []string // selected net per channel ("" = parked)
}

// NewSelector binds a fresh, fully parked selector to a working layout
// (a clone of the layout the plan was built on).
func (p *Plan) NewSelector(l *core.Layout) *Selector {
	return &Selector{plan: p, l: l, cur: make([]string, p.Channels)}
}

// Reach reports whether a net can be observed through the overlay.
func (s *Selector) Reach(name string) bool { return s.plan.Covers(name) }

// Selected returns the currently observed net of every channel
// ("" = parked). Test fixture of the overlay and debug tests.
func (s *Selector) Selected() []string { return append([]string(nil), s.cur...) }

// Partition splits a request into conflict-free time-multiplex batches
// — at most one net per channel per batch, preserving input order —
// and returns any nets outside overlay reach separately (the caller's
// CAD fallback handles those).
func (s *Selector) Partition(names []string) (batches [][]string, unreachable []string) {
	var taken []map[int]bool
	for _, name := range names {
		ch, ok := s.plan.chanOf[name]
		if !ok {
			unreachable = append(unreachable, name)
			continue
		}
		placed := false
		for b := range batches {
			if !taken[b][ch] {
				batches[b] = append(batches[b], name)
				taken[b][ch] = true
				placed = true
				break
			}
		}
		if !placed {
			batches = append(batches, []string{name})
			taken = append(taken, map[int]bool{ch: true})
		}
	}
	return batches, unreachable
}

// Select points the tap mux of each affected channel at the requested
// net — a pure configuration mutation: O(taps) slice writes, zero
// calls into place, route or STA. The change is journaled through the
// layout's transaction log (core.Layout.RecordUndo) so an enclosing
// Rollback restores the previous selection. Two requested nets on the
// same channel conflict (use Partition first); nets outside overlay
// reach are an error (the caller's CAD fallback handles those).
func (s *Selector) Select(names []string) error {
	inCall := make(map[int]string, len(names))
	for _, name := range names {
		ch, ok := s.plan.chanOf[name]
		if !ok {
			return fmt.Errorf("overlay: net %q outside overlay reach", name)
		}
		if prev, dup := inCall[ch]; dup {
			return fmt.Errorf("overlay: nets %q and %q share channel %d (time-multiplex with Partition)", prev, name, ch)
		}
		inCall[ch] = name
	}
	for ch, name := range inCall {
		if s.cur[ch] == name {
			continue
		}
		prev := s.cur[ch]
		s.cur[ch] = name
		ch := ch
		s.l.RecordUndo(func() { s.cur[ch] = prev })
	}
	s.Switches++
	return nil
}

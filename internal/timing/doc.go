// Package timing performs static timing analysis over a placed (and
// optionally routed) design. The delay model is the standard simplified
// one: a fixed delay per LUT evaluation, a clock-to-Q delay per flip-flop,
// and wire delay proportional to routed wirelength (falling back to
// Manhattan source–sink distance when a net has no recorded route).
// Table 1's timing-overhead column is the ratio of tiled to untiled
// critical path minus one.
//
// Analyze runs one full analysis over a core.Layout.TimingInput
// snapshot; Table 1 and cmd/tileplan call it once per layout.
package timing
